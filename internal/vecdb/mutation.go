package vecdb

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Op tags a journaled mutation.
type Op uint8

const (
	// OpAdd inserts (or replaces) a document under an explicit ID.
	OpAdd Op = 1
	// OpDelete removes a document.
	OpDelete Op = 2

	// opAddV2 / opDeleteV2 are the *wire* op bytes for records that
	// carry a non-default collection. They never appear in a decoded
	// Mutation (DecodeMutation maps them back to OpAdd/OpDelete with
	// Collection set); EncodeMutation only emits them when the
	// collection is non-default, so a default-collection corpus keeps
	// writing byte-identical v1 records and pre-collection WALs replay
	// unchanged.
	opAddV2    Op = 3
	opDeleteV2 Op = 4
)

// Mutation is one deterministic state change to a DB — the unit a
// write-ahead log journals and replays. Vectors are never part of a
// mutation: embedders are deterministic, so replay re-embeds, keeping
// the journal format independent of embedder internals (the same
// contract Save/Load rely on). Collection scopes the mutation: empty
// means the default collection; on OpDelete a non-empty collection
// makes the delete checked (a document in another collection reports
// ErrNotFound, exactly like an absent ID).
type Mutation struct {
	Op         Op
	ID         int64
	Collection string
	Text       string
	Meta       map[string]string
}

// Apply executes one mutation, advancing the sequence counter with
// it. Replaying a journal of previously successful mutations in order
// reproduces the DB state exactly.
func (db *DB) Apply(m Mutation) error {
	return db.ApplyAll([]Mutation{m})
}

// ApplyAll executes a batch of mutations in order. Vectors for the
// adds are computed concurrently outside the lock, then the whole
// batch is installed under a single lock acquisition — the fast path
// for WAL replay and bulk ingest. On error the batch stops at the
// failing mutation; earlier ones remain applied.
func (db *DB) ApplyAll(ms []Mutation) error {
	vecs := make([][]float32, len(ms))
	var texts []string
	var slots []int
	for i, m := range ms {
		switch m.Op {
		case OpAdd:
			if m.ID <= 0 {
				return fmt.Errorf("vecdb: document ID must be positive, got %d", m.ID)
			}
			texts = append(texts, m.Text)
			slots = append(slots, i)
		case OpDelete:
		default:
			return fmt.Errorf("vecdb: unknown mutation op %d", m.Op)
		}
	}
	embedded, err := embedAll(db.embed, texts)
	if err != nil {
		return err
	}
	for j, i := range slots {
		vecs[i] = embedded[j]
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, m := range ms {
		switch m.Op {
		case OpAdd:
			if err := db.addLocked(m.ID, m.Collection, m.Text, m.Meta, vecs[i]); err != nil {
				return err
			}
		case OpDelete:
			if err := db.deleteLocked(m.ID, m.Collection); err != nil {
				return err
			}
		}
		// One seq per applied mutation: on a partial failure the counter
		// covers exactly the applied prefix, and the caller that rolls
		// the batch back restores it with SetSeq.
		db.seq++
	}
	return nil
}

// embedAll embeds texts on all cores, preserving order.
func embedAll(embed Embedder, texts []string) ([][]float32, error) {
	vecs := make([][]float32, len(texts))
	errs := make([]error, len(texts))
	parallel.For(len(texts), func(i int) {
		v, err := embed.Embed(texts[i])
		if err != nil {
			errs[i] = err
			return
		}
		vecs[i] = v
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("vecdb: embed: %w", err)
		}
	}
	return vecs, nil
}

// Mutation wire form (the WAL payload):
//
//	v1 (no collection — the pre-collection format, still written for
//	default-collection mutations so old and new WALs interleave):
//	  [1B op=1|2][8B LE id]                   — op 2 (delete) stops here
//	  [4B LE len][text][2B LE meta count]
//	  then per meta pair: [2B LE len][key][4B LE len][value]
//
//	v2 (non-default collection — op 3 = add, op 4 = checked delete):
//	  [1B op=3|4][8B LE id][2B LE len][collection]   — op 4 stops here
//	  [4B LE len][text][2B LE meta count][pairs...]
//
// Decoding maps v1 records onto the default collection, so a WAL
// written before collections existed replays byte-for-byte into
// "default". The frame-level CRC lives in the WAL record, not here.

// EncodeMutation serializes m for journaling. Fields that overflow
// their length prefixes are rejected here, before anything is applied
// or appended — a silently truncated prefix would produce a record
// that fails to decode on every subsequent boot.
func EncodeMutation(m Mutation) ([]byte, error) {
	n, err := mutationSize(m)
	if err != nil {
		return nil, err
	}
	buf, _ := appendMutation(make([]byte, 0, n), make([]string, 0, len(m.Meta)), m)
	return buf, nil
}

// mutationSize validates m for the wire form and returns its encoded
// length.
func mutationSize(m Mutation) (int, error) {
	n := 9
	if coll := wireCollection(m.Collection); coll != "" {
		if len(coll) > math.MaxUint16 {
			return 0, fmt.Errorf("vecdb: collection of doc %d exceeds %d bytes", m.ID, math.MaxUint16)
		}
		n += 2 + len(coll)
	}
	switch m.Op {
	case OpAdd:
	case OpDelete:
		return n, nil
	default:
		return 0, fmt.Errorf("vecdb: unknown mutation op %d", m.Op)
	}
	if uint64(len(m.Text)) > math.MaxUint32 {
		return 0, fmt.Errorf("vecdb: text of doc %d exceeds %d bytes", m.ID, uint32(math.MaxUint32))
	}
	if len(m.Meta) > math.MaxUint16 {
		return 0, fmt.Errorf("vecdb: doc %d has %d meta entries, max %d", m.ID, len(m.Meta), math.MaxUint16)
	}
	n += 4 + len(m.Text) + 2
	for k, v := range m.Meta {
		if len(k) > math.MaxUint16 {
			return 0, fmt.Errorf("vecdb: meta key of doc %d exceeds %d bytes", m.ID, math.MaxUint16)
		}
		if uint64(len(v)) > math.MaxUint32 {
			return 0, fmt.Errorf("vecdb: meta value of doc %d exceeds %d bytes", m.ID, uint32(math.MaxUint32))
		}
		n += 2 + len(k) + 4 + len(v)
	}
	return n, nil
}

// wireCollection is the collection a record carries: none for the
// default collection, which keeps those records in the v1 form.
func wireCollection(c string) string {
	if NormalizeCollection(c) == DefaultCollection {
		return ""
	}
	return c
}

// appendMutation appends the wire form of m, which mutationSize has
// accepted, to buf. keys is scratch space for sorting the metadata
// keys; it is returned for reuse, so a caller encoding many mutations
// allocates only when a record outgrows the largest before it.
func appendMutation(buf []byte, keys []string, m Mutation) ([]byte, []string) {
	coll := wireCollection(m.Collection)
	wireOp := m.Op
	switch {
	case coll == "":
	case m.Op == OpAdd:
		wireOp = opAddV2
	default:
		wireOp = opDeleteV2
	}
	buf = append(buf, byte(wireOp))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.ID))
	if coll != "" {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(coll)))
		buf = append(buf, coll...)
	}
	if m.Op != OpAdd {
		return buf, keys
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Text)))
	buf = append(buf, m.Text...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Meta)))
	// Pairs go out in key order, so one mutation always encodes to one
	// byte sequence; the decoder accepts any order.
	keys = appendSortedKeys(keys[:0], m.Meta)
	for _, k := range keys {
		v := m.Meta[k]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf, keys
}

// DecodeMutation parses a journaled mutation (v1 or v2 wire form).
func DecodeMutation(b []byte) (Mutation, error) {
	var m Mutation
	if len(b) < 9 {
		return m, fmt.Errorf("vecdb: mutation record too short (%d bytes)", len(b))
	}
	wireOp := Op(b[0])
	m.ID = int64(binary.LittleEndian.Uint64(b[1:9]))
	b = b[9:]
	var err error
	switch wireOp {
	case OpAdd, OpDelete:
		m.Op = wireOp
	case opAddV2:
		m.Op = OpAdd
		if m.Collection, b, err = takeString(b, 2); err != nil {
			return m, err
		}
	case opDeleteV2:
		m.Op = OpDelete
		if m.Collection, b, err = takeString(b, 2); err != nil {
			return m, err
		}
	default:
		return m, fmt.Errorf("vecdb: unknown mutation op %d", wireOp)
	}
	if m.Op == OpDelete {
		if len(b) != 0 {
			return m, fmt.Errorf("vecdb: %d trailing bytes in delete record", len(b))
		}
		return m, nil
	}
	text, b, err := takeString(b, 4)
	if err != nil {
		return m, err
	}
	m.Text = text
	if len(b) < 2 {
		return m, fmt.Errorf("vecdb: truncated meta count")
	}
	count := int(binary.LittleEndian.Uint16(b[:2]))
	b = b[2:]
	// Every pair takes at least its two length prefixes; checking that
	// first keeps a hostile count from sizing the map.
	if count > len(b)/6 {
		return m, fmt.Errorf("vecdb: %d meta pairs cannot fit in %d bytes", count, len(b))
	}
	if count > 0 {
		m.Meta = make(map[string]string, count)
	}
	for i := 0; i < count; i++ {
		var k, v string
		if k, b, err = takeString(b, 2); err != nil {
			return m, err
		}
		if v, b, err = takeString(b, 4); err != nil {
			return m, err
		}
		m.Meta[k] = v
	}
	if len(b) != 0 {
		return m, fmt.Errorf("vecdb: %d trailing bytes in add record", len(b))
	}
	return m, nil
}

// takeString reads a length-prefixed string with a prefix of `width`
// bytes (2 or 4, little-endian).
func takeString(b []byte, width int) (string, []byte, error) {
	if len(b) < width {
		return "", nil, fmt.Errorf("vecdb: truncated length prefix")
	}
	var n int
	if width == 2 {
		n = int(binary.LittleEndian.Uint16(b[:2]))
	} else {
		n = int(binary.LittleEndian.Uint32(b[:4]))
	}
	b = b[width:]
	if len(b) < n {
		return "", nil, fmt.Errorf("vecdb: truncated string (want %d, have %d)", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}
