package vecdb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/rng"
)

// referenceDocHash is a verbatim copy of docHash as it was before it
// wrote FNV-1a inline: the oracle TestDocHashMatchesReference holds
// docHash to.
func referenceDocHash(d Document) uint64 {
	h := fnv.New64a()
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(d.ID))
	h.Write(idb[:])
	h.Write([]byte{0x1d})
	h.Write([]byte(NormalizeCollection(d.Collection)))
	h.Write([]byte{0x1f})
	h.Write([]byte(d.Text))
	if len(d.Meta) > 0 {
		for _, k := range appendSortedKeys(make([]string, 0, len(d.Meta)), d.Meta) {
			h.Write([]byte{0x1f})
			h.Write([]byte(k))
			h.Write([]byte{0x1e})
			h.Write([]byte(d.Meta[k]))
		}
	}
	return h.Sum64()
}

// TestDocHashMatchesReference: the content checksum folds docHash
// over every stored document and is compared across processes and
// versions (resync, mixed-version clusters), so docHash must keep
// every bit of the hash/fnv version on any document — empty ones,
// ones with many keys (more than the inline key buffer holds) and ones
// outside the default collection included.
func TestDocHashMatchesReference(t *testing.T) {
	src := rng.New(48)
	docs := []Document{
		{},
		{ID: -1, Collection: DefaultCollection},
		{ID: 1, Text: "", Meta: map[string]string{}},
		{ID: 2, Text: "café “quoted” …", Meta: map[string]string{"": ""}},
	}
	for i := 0; i < 500; i++ {
		d := Document{ID: int64(src.Intn(1 << 30)), Text: metaText(src), Collection: metaCollection(src)}
		if src.Intn(4) == 0 {
			d.Text = ""
		}
		switch src.Intn(3) {
		case 0:
			d.Meta = metaShape(src, d.ID)
		case 1:
			d.Meta = map[string]string{}
			for k := src.Intn(20); k > 0; k-- {
				d.Meta[fmt.Sprintf("k%d", src.Intn(64))] = fmt.Sprintf("v%d\x1e\x1f", src.Intn(8))
			}
		}
		docs = append(docs, d)
	}
	for _, d := range docs {
		if got, want := docHash(d), referenceDocHash(d); got != want {
			t.Fatalf("docHash(%+v) = %016x, want %016x", d, got, want)
		}
	}
}
