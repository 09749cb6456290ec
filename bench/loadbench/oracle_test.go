package main

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/vecdb"
)

// The sparse scoring must equal the dense definition bit for bit:
// cosine of the two embedded texts as vecdb computes it.
func TestOracleScoresEqualDenseCosine(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	docs := genCorpus(r, 300, docWords, "d", "")
	o, err := newOracle(docs)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(docs))
	for _, q := range genQueries(r, docs, 20, "") {
		if err := o.scores(q.Text, scores); err != nil {
			t.Fatal(err)
		}
		qv, _ := o.embed.Embed(q.Text)
		for i, d := range docs {
			dv, _ := o.embed.Embed(d.Text)
			want, err := vecdb.Similarity(vecdb.Cosine, qv, dv)
			if err != nil {
				t.Fatal(err)
			}
			if scores[i] != want {
				t.Fatalf("query %q doc %d: sparse score %v, dense cosine %v", q.Text, i, scores[i], want)
			}
		}
	}
}

// bruteForce answers q the slow, obvious way.
func bruteForce(o *oracle, q searchQuery) []hit {
	scores := make([]float64, len(o.docs))
	if err := o.scores(q.Text, scores); err != nil {
		panic(err)
	}
	var hits []hit
	for i, d := range o.docs {
		if o.matches(i, q) {
			hits = append(hits, hit{ID: int64(i + 1), Score: scores[i], Text: d.Text})
		}
	}
	sort.SliceStable(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].ID < hits[b].ID
	})
	if len(hits) > searchK {
		hits = hits[:searchK]
	}
	return hits
}

func TestCheckSearchAcceptsTheAnswerAndRejectsDamage(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	docs := genCorpus(r, 400, docWords, "d", "")
	o, err := newOracle(docs)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, len(docs))
	qs := genQueries(r, docs, 40, "")
	filtered := 0
	for _, q := range qs {
		if q.Tag != "" {
			filtered++
		}
		good := bruteForce(o, q)
		if err := o.checkSearch(q, good, scratch); err != nil {
			t.Fatalf("query %q (tag %q): correct answer refused: %v", q.Text, q.Tag, err)
		}
		damage := map[string]func([]hit) []hit{
			"a hit dropped": func(h []hit) []hit { return h[:len(h)-1] },
			"first two swapped": func(h []hit) []hit {
				if h[0].Score-h[1].Score <= scoreEps {
					return nil // a tie: the swap is also correct
				}
				h[0], h[1] = h[1], h[0]
				return h
			},
			"a score off by 1e-6": func(h []hit) []hit { h[2].Score += 1e-6; return h },
			"a hit repeated":      func(h []hit) []hit { h[1] = h[0]; return h },
			"a text not stored":   func(h []hit) []hit { h[0].Text = "never ingested."; return h },
			"a worse document in place of the last": func(h []hit) []hit {
				for i := range o.docs {
					in := false
					for _, x := range h {
						in = in || x.Text == o.docs[i].Text
					}
					if !in && o.matches(i, q) && scratch[i] < h[len(h)-1].Score-1e-6 {
						h[len(h)-1] = hit{ID: int64(i + 1), Score: scratch[i], Text: o.docs[i].Text}
						return h
					}
				}
				return nil
			},
		}
		if q.Tag != "" {
			damage["a document of another tag"] = func(h []hit) []hit {
				for i, d := range o.docs {
					if d.Tag != q.Tag {
						h[0] = hit{ID: int64(i + 1), Score: scratch[i], Text: d.Text}
						return h
					}
				}
				return nil
			}
		}
		for what, f := range damage {
			if err := o.scores(q.Text, scratch); err != nil {
				t.Fatal(err)
			}
			bad := f(append([]hit(nil), good...))
			if bad == nil {
				continue
			}
			if o.checkSearch(q, bad, scratch) == nil {
				t.Errorf("query %q: answer with %s accepted", q.Text, what)
			}
		}
	}
	if filtered == 0 {
		t.Fatal("no filtered query generated")
	}
}

func TestProbeQueryHasNoTies(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	docs := genCorpus(r, 500, docWords, "d", "")
	o, err := newOracle(docs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := o.probeQuery(r, "")
	if err != nil {
		t.Fatal(err)
	}
	hits := bruteForce(o, q)
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Score-hits[i].Score <= scoreEps {
			t.Errorf("probe %q: ranks %d and %d tie", q.Text, i-1, i)
		}
	}
}

// F1 of /verify verdicts against the dataset labels, with "correct" the
// positive class.
func TestAskVerifyQualityIsF1OnLabels(t *testing.T) {
	a := &askVerify{}
	var res []result
	add := func(label dataset.Label, trusted string, n int) {
		for i := 0; i < n; i++ {
			body := mustJSON(map[string]string{"question": "q", "context": "c", "response": strings.Repeat("r", len(a.ops)+1)})
			a.ops = append(a.ops, askOp{path: "/verify", body: body, label: label})
			res = append(res, result{status: 200, body: []byte(`{"score":1,"trusted":` + trusted + `,"sentences":[]}`)})
		}
	}
	add(dataset.LabelCorrect, "true", 6)  // tp
	add(dataset.LabelCorrect, "false", 2) // fn
	add(dataset.LabelPartial, "true", 3)  // fp
	add(dataset.LabelWrong, "false", 9)   // tn
	reqs := a.requests(a.ops)
	pass, quality, err := a.check(reqs, res, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	// precision 6/9, recall 6/8 → F1 = 2·(2/3)·(3/4)/((2/3)+(3/4)) = 12/17.
	if want := 12.0 / 17.0; quality < want-1e-12 || quality > want+1e-12 {
		t.Errorf("quality %v, want %v", quality, want)
	}
	if share(pass) != 1 {
		t.Errorf("well-formed verdicts marked failed")
	}
	// An exact repeat with the same answer passes and is not counted a
	// second time: F1 is over the distinct triples.
	a.ops = append(a.ops, a.ops[0])
	res = append(res, res[0])
	pass, again, err := a.check(a.requests(a.ops), res, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if !pass[len(pass)-1] || again != quality {
		t.Errorf("after an exact repeat: pass %v, quality %v, want true and %v", pass[len(pass)-1], again, quality)
	}
	// A repeat that answers differently from its first occurrence fails.
	a.ops = append(a.ops, a.ops[0])
	res = append(res, result{status: 200, body: []byte(`{"score":2,"trusted":true,"sentences":[]}`)})
	pass, _, err = a.check(a.requests(a.ops), res, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if pass[len(pass)-1] {
		t.Errorf("a repeat with a different answer passed")
	}
}

func TestAnalyseAttributesEveryInstantOnce(t *testing.T) {
	us := func(n int) int64 { return int64(time.Duration(n) * time.Microsecond) }
	spans := []span{
		{Name: spanSearch, Start: us(0), End: us(100), Req: 1},
		{Name: spanStoreSearch, Start: us(10), End: us(90), Req: 1},
		{Name: spanEmbed, Start: us(10), End: us(20), Req: 1},
		{Name: spanIndexSearch, Start: us(20), End: us(50), Req: 1}, // two shards in parallel:
		{Name: spanIndexSearch, Start: us(25), End: us(70), Req: 1}, // this one ends last
		{Name: spanIngest, Start: us(0), End: us(40), Req: 2},       // another kind of request
		{Name: spanEmbed, Start: us(200), End: us(210), Req: -1},    // outside any request
	}
	b := analyse(spans, map[string]bool{spanSearch: true})
	want := map[string]time.Duration{
		spanSearch:      20 * time.Microsecond, // 0-10 and 90-100
		spanStoreSearch: 20 * time.Microsecond, // 70-90
		spanEmbed:       10 * time.Microsecond,
		spanIndexSearch: 50 * time.Microsecond, // 20-70, the overlap counted once
	}
	var sum time.Duration
	for name, d := range want {
		if b.self[name] != d {
			t.Errorf("%s: self time %v, want %v", name, b.self[name], d)
		}
		sum += b.self[name]
	}
	if b.requests != 1 || b.total != 100*time.Microsecond || sum != b.total {
		t.Errorf("requests %d, total %v, attributed %v; want 1, 100µs, 100µs", b.requests, b.total, sum)
	}
	if spans[3].Parent != 1 || spans[2].Parent != 1 || spans[1].Parent != 0 || spans[0].Parent != -1 {
		t.Errorf("parents %d %d %d %d, want -1 0 1 1", spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	if got := b.share(spanIndexSearch); got != 0.5 {
		t.Errorf("index search share %v, want 0.5", got)
	}
}
