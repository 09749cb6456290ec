package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/rag"
)

var update = flag.Bool("update", false, "rewrite testdata/*_golden.json from the code under test")

const ingestGoldenFile = "testdata/ingest_golden.json"

// ingestGoldenDefault is the default-collection stream of the golden:
// tagged and untagged plain lines (the fast parse path), one line with
// escapes and one with non-ASCII text (the encoding/json path and the
// rune splitter), a bare string, an empty meta set, and keys in both
// orders.
var ingestGoldenDefault = []string{
	`{"text":"The store opens at nine. It closes at five p.m. on weekdays.","meta":{"tag":"t0"}}`,
	`{"meta":{"tag":"t1","src":"handbook"},"text":"Employees get fourteen days of annual leave. Leave requests need two weeks of notice. Unused leave expires in March."}`,
	`{"text":"Uniforms must be worn at all times on the shop floor."}`,
	`{"text":"Overtime is paid at 1.5 times the hourly rate. See Dr. Smith for details, e.g. forms.","meta":{}}`,
	`{"text":"She said \"yes\". Then she left.\nThe door closed.","meta":{"tag":"té"}}`,
	`{"text":"Café prices rose… The “new” menu starts Monday! Is it cheaper? No.","meta":{"tag":"t2"}}`,
	`"A bare string document. It has two sentences."`,
	`  {"text" : "Whitespace around tokens. Still a plain line." , "meta" : { "tag" : "t0" } }  `,
	`{"text":"Probation lasts three months. Reviews happen monthly. Managers sign off. Staff are told in writing.","meta":{"tag":"t1"}}`,
}

// ingestGoldenAcme is streamed into a non-default collection.
var ingestGoldenAcme = []string{
	`{"text":"Acme anvils ship in crates. Crates weigh forty kilograms.","meta":{"tag":"catalog"}}`,
	`{"text":"Acme rockets are sold separately."}`,
}

type ingestGolden struct {
	// Ingested maps every file of the data directory after both
	// streams (WAL segments and the store's meta file) to its bytes.
	Ingested map[string]string `json:"ingested"`
	// Saved is the same after Save: the checkpoints and the truncated
	// WALs.
	Saved    map[string]string `json:"saved"`
	Checksum string            `json:"checksum"`
}

// dataDirFiles reads every regular file under dir, keyed by its
// slash-separated relative path, as base64.
func dataDirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = base64.StdEncoding.EncodeToString(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIngestGolden pins every stored byte of the streaming load path:
// parse, chunk, embed, WAL framing and the checkpoint. A fixed NDJSON
// stream goes through one chunk worker (so document order, and with
// it every ID, is fixed) into a fresh 2-shard durable store; the WAL
// segments, the checkpoints after Save and the content checksum must
// equal testdata/ingest_golden.json. A performance change to any
// layer of that path must leave this file untouched.
func TestIngestGolden(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 2)
	defer s.Close()
	stream := func(collection string, lines []string) {
		t.Helper()
		st, err := ingest.Run(context.Background(), ingest.Config{
			Store:      ingestSink{s},
			Collection: collection,
			Chunker:    rag.DefaultChunker(),
			Workers:    1,
		}, strings.NewReader(strings.Join(lines, "\n")+"\n"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Indexed != uint64(len(lines)) || st.Failed != 0 {
			t.Fatalf("stream %q: %+v, want %d indexed", collection, st, len(lines))
		}
	}
	stream("", ingestGoldenDefault)
	stream("acme", ingestGoldenAcme)
	got := ingestGolden{Ingested: dataDirFiles(t, dir)}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	got.Saved = dataDirFiles(t, dir)
	got.Checksum = fmt.Sprintf("%016x", s.Checksum())

	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ingestGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(ingestGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want ingestGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if got.Checksum != want.Checksum {
		t.Errorf("checksum %s, want %s", got.Checksum, want.Checksum)
	}
	for _, step := range []struct {
		name      string
		got, want map[string]string
	}{{"ingested", got.Ingested, want.Ingested}, {"saved", got.Saved, want.Saved}} {
		if len(step.got) != len(step.want) {
			t.Errorf("%s: %d files, want %d", step.name, len(step.got), len(step.want))
		}
		for path, w := range step.want {
			if g, ok := step.got[path]; !ok {
				t.Errorf("%s: %s missing", step.name, path)
			} else if g != w {
				t.Errorf("%s: %s differs from the golden", step.name, path)
			}
		}
	}
}
