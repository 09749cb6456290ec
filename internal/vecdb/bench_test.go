package vecdb

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
)

func randomVectors(n, dim int, seed uint64) [][]float32 {
	src := rng.New(seed)
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(src.NormFloat64())
		}
		NormalizeInPlace(v)
		out[i] = v
	}
	return out
}

// hashedTexts makes n texts of the given word count drawn from a
// 4096-word vocabulary: the shape of the served corpora, where a
// 12-word text sets ~23 of 256 HashedEmbedder coordinates.
func hashedTexts(n, words int, seed uint64) []string {
	src := rng.New(seed)
	out := make([]string, n)
	var b strings.Builder
	for i := range out {
		b.Reset()
		for j := 0; j < words; j++ {
			fmt.Fprintf(&b, "w%d ", src.Intn(4096))
		}
		out[i] = b.String()
	}
	return out
}

// BenchmarkFlatSearch scans dense Gaussian rows and feature-hashed text
// rows (stored as their nonzeros). B/row is the heap the index holds
// per stored vector.
func BenchmarkFlatSearch(b *testing.B) {
	e, err := NewHashedEmbedder(256)
	if err != nil {
		b.Fatal(err)
	}
	hashed := embedAllTexts(b, e, hashedTexts(20000, 12, 1))
	for _, c := range []struct {
		name    string
		vecs    [][]float32
		queries [][]float32
		k       int
	}{
		{"n=1000", randomVectors(1000, 128, 1), randomVectors(64, 128, 2), 10},
		{"n=10000", randomVectors(10000, 128, 1), randomVectors(64, 128, 2), 10},
		{"corpus=hashed", hashed, embedAllTexts(b, e, hashedTexts(64, 8, 2)), 5},
	} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			x, err := NewFlatIndex(Cosine, len(c.vecs[0]))
			if err != nil {
				b.Fatal(err)
			}
			for i, v := range c.vecs {
				if err := x.Add(int64(i), v); err != nil {
					b.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Search(c.queries[i%len(c.queries)], c.k); err != nil {
					b.Fatal(err)
				}
			}
			// Reported after the loop: ResetTimer drops earlier metrics.
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(len(c.vecs)), "B/row")
		})
	}
}

// BenchmarkDBAddMeta stores 20 000 tagged 12-word documents through
// ApplyAll, the serving write path. B/doc is the heap the DB holds per
// document beyond its inputs (rows, docs map, metadata): tag10 is the
// served shape (ten distinct tags), unique the worst case for sharing
// (every document its own set).
func BenchmarkDBAddMeta(b *testing.B) {
	const n = 20000
	texts := hashedTexts(n, 12, 1)
	for _, c := range []struct {
		name string
		tag  func(i int) string
	}{
		{"meta=tag10", func(i int) string { return fmt.Sprintf("t%d", i%10) }},
		{"meta=unique", func(i int) string { return fmt.Sprintf("u%d", i) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ms := make([]Mutation, n)
			for i := range ms {
				ms[i] = Mutation{Op: OpAdd, ID: int64(i + 1), Text: texts[i], Meta: map[string]string{"tag": c.tag(i)}}
			}
			var before, after runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				db, err := NewDefault(256)
				if err != nil {
					b.Fatal(err)
				}
				if err := db.ApplyAll(ms); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(db)
				runtime.KeepAlive(ms) // inputs stay out of the delta
				b.StartTimer()
			}
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/n, "B/doc")
		})
	}
}

// BenchmarkSaveFile checkpoints 20 000 tagged 12-word documents in two
// collections (the search_scan corpus shape) through SaveFile: B/op and
// allocs/op are what one checkpoint leaves for the collector.
func BenchmarkSaveFile(b *testing.B) {
	const n = 20000
	texts := hashedTexts(n, 12, 1)
	ms := make([]Mutation, n)
	for i := range ms {
		ms[i] = Mutation{Op: OpAdd, ID: int64(i + 1), Collection: []string{"", "base"}[i%2], Text: texts[i], Meta: map[string]string{"tag": fmt.Sprintf("t%d", i%10)}}
	}
	db, err := NewDefault(256)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.ApplyAll(ms); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "checkpoint.snap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.SaveFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIVFSearch(b *testing.B) {
	const dim, n = 128, 10000
	vecs := randomVectors(n, dim, 1)
	for _, nprobe := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("nprobe=%d", nprobe), func(b *testing.B) {
			x, err := NewIVFIndex(Cosine, dim, 64, nprobe)
			if err != nil {
				b.Fatal(err)
			}
			if err := x.Train(vecs[:2000], 8); err != nil {
				b.Fatal(err)
			}
			for i, v := range vecs {
				if err := x.Add(int64(i), v); err != nil {
					b.Fatal(err)
				}
			}
			queries := randomVectors(64, dim, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Search(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashedEmbed embeds one text per shape: a handbook sentence,
// a search-corpus passage (12 vocabulary words and a serial token), a
// 128-word ingested document, and a sentence with typographic
// punctuation, which takes the tokenizer's rune path.
func BenchmarkHashedEmbed(b *testing.B) {
	e, err := NewHashedEmbedder(256)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, text string }{
		{"handbook", "Full-time employees are entitled to 14 days of paid annual leave per year."},
		{"scan_passage", scanPassages(1, 12, 1)[0]},
		{"ingest_doc", scanPassages(1, 128, 2)[0]},
		{"non_ascii", "Full–time employees’ “annual leave” is 14 days — per year…"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Embed(c.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
