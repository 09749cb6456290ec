package serve

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// int8FlatConfig is the quantized store configuration under test: flat
// scans over int8 codes with exact re-rank.
var int8FlatConfig = IndexConfig{Kind: "flat", Quantize: "int8", RerankK: 16}

func openQuantizedStore(t *testing.T, dir string, shards int) *ShardedDB {
	t.Helper()
	s, err := OpenShardedWithIndex(dir, shards, 64, int8FlatConfig,
		PersistConfig{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuantizedRecoveryBitIdentical: a quantized store recovered from
// checkpoint + WAL replay serves bit-identical results and preserves
// seq/checksum parity — quantization state is derived deterministically
// from the journaled documents, never persisted.
func TestQuantizedRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openQuantizedStore(t, dir, 4)
	var ids []int64
	for _, d := range persistDocs[:3] {
		id, err := s.Add(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Fold the first half into a checkpoint so recovery exercises both
	// the snapshot path and WAL replay on top.
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	for _, d := range persistDocs[3:] {
		id, err := s.Add(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.DeleteContext(context.Background(), "", ids[1]); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, s)
	wantLen, wantSeq, wantCheck := s.Len(), s.Seq(), s.Checksum()
	s.crash()

	r := openQuantizedStore(t, dir, 4)
	defer r.Close()
	if r.Len() != wantLen {
		t.Fatalf("recovered %d docs, want %d", r.Len(), wantLen)
	}
	if got := r.Seq(); got != wantSeq {
		t.Errorf("recovered seq %d, want %d", got, wantSeq)
	}
	if got := r.Checksum(); got != wantCheck {
		t.Errorf("recovered checksum %#x, want %#x", got, wantCheck)
	}
	if got := searchAll(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("quantized search diverged after recovery:\n got %+v\nwant %+v", got, want)
	}
	// The recovered indexes really are quantized: the code mirror is
	// populated and its scan working set beats the float path.
	mem := r.IndexStats().Memory
	if mem.CodeBytes == 0 {
		t.Fatal("recovered store reports no quantized code storage")
	}
	if mem.ScanBytes >= mem.FloatBytes {
		t.Errorf("quantized scan bytes %d not below float bytes %d", mem.ScanBytes, mem.FloatBytes)
	}
}

// TestQuantizedRerankTelemetry: quantized searches report the rerank
// stage into the shared stage_duration_seconds series.
func TestQuantizedRerankTelemetry(t *testing.T) {
	s, err := NewShardedWithIndex(2, 64, int8FlatConfig)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	for _, d := range persistDocs {
		if _, err := s.Add(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Search("when does the store open", 3); err != nil {
		t.Fatal(err)
	}
	snaps := reg.HistogramSnapshots("stage_duration_seconds")
	if snaps["stage=rerank"].Count == 0 {
		t.Fatalf("no rerank observations; stages seen: %v", keysOf(snaps))
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestIndexConfigValidation: startup validation rejects the mistakes
// the flags can express.
func TestIndexConfigValidation(t *testing.T) {
	cases := []struct {
		cfg  IndexConfig
		want string // substring of the error; empty means valid
	}{
		{IndexConfig{}, ""},
		{IndexConfig{Kind: "ivf", NList: 32, NProbe: 4}, ""},
		{IndexConfig{Kind: "hnsw", Quantize: "int8"}, ""},
		{IndexConfig{Kind: "annoy"}, "unknown index kind"},
		{IndexConfig{Quantize: "fp4"}, "unknown quantization"},
		{IndexConfig{RerankK: -1}, "rerank-k"},
		{IndexConfig{Kind: "ivf", NList: 4, NProbe: 9}, "nprobe"},
		{IndexConfig{Kind: "hnsw", M: 8, EfConstruction: 4}, "ef-construction"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%+v: unexpected error %v", c.cfg, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want substring %q", c.cfg, err, c.want)
		}
	}
}
