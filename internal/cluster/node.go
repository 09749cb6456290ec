package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/vecdb"
)

// Shard protocol (compact JSON over HTTP), served by NewNodeHandler
// and spoken by HTTPBackend:
//
//	POST /shard/search     {"vec":[...], "k":3,
//	                        "collection":"t","filter":{...}}
//	                                                   → {"hits":[{"id","score","collection","text","meta"}]}
//	POST /shard/apply      {"mutations":[...]}         → {"applied": n}
//	GET  /shard/documents/{id}                         → {"id","text","meta"} | 404
//	GET  /shard/stat                                   → {"len","next_id","seq","checksum"}
//	GET  /shard/mutations?since=S&max=N                → {"mutations":[{"seq",...}]} | 410
//	POST /shard/resync     {"mutations":[{"seq",...}]} → {"applied": n, "seq": s}
//	GET  /shard/snapshot                               → {"seq": s, "docs":[{"id","text","meta"}]}
//	POST /shard/snapshot   {"seq": s, "docs":[...]}    → {"docs": n, "seq": s}
//	GET  /shard/epoch                                  → {"epoch","serving","ring"}
//	POST /shard/epoch      {"epoch","shards","serving"}→ {"epoch","serving"} | 409
//	GET  /healthz                                      → 200 {"status":"ok"}        (liveness)
//	GET  /readyz                                       → 200 | 503                  (recovery complete)
//
// Mutations use {"op":"add"|"delete","id":n,"collection":"...",
// "text":"...","meta":{...}} — collection omitted means the default
// collection, so pre-collection peers interoperate unchanged;
// the resync endpoints carry the same shape plus the per-shard "seq"
// each mutation was applied at. Scores and vectors travel as JSON
// float64s, which round-trip exactly, so a remote shard returns
// bit-identical hits to a local one. Deletes of absent IDs are 404;
// malformed requests are 400; a delta request past the journal's
// retention is 410 Gone (mapped back to vecdb.ErrSeqTruncated by
// HTTPBackend), telling the resync manager to fall back to snapshot
// transfer.
//
// /shard/epoch is the ring-epoch control plane (see epoch.go): the
// migration orchestrator installs the versioned shard assignment on
// its nodes, monotonic by epoch. A node handed Serving=false has been
// retired from the ring: it answers every data request with 409
// Conflict plus its current ring, and a serving node likewise 409s a
// request whose X-Ring-Epoch header is older than the ring it holds —
// the typed self-heal signal HTTPBackend maps to StaleEpochError.
// Nodes never handed a ring accept everything (no epoch machinery in
// a single-epoch deployment).

// NodeStore is what a shard node must expose to serve the protocol.
// Both *vecdb.DB (one bare shard) and serve.ShardedDB (the durable
// WAL+checkpoint store cmd/shardnode runs) satisfy it. The resync
// methods mirror Backend's: MutationsSince serves the journaled delta
// (vecdb.ErrSeqTruncated when the journal cannot), ApplyResync and
// ApplySnapshot are the idempotent catch-up writes, SnapshotDocs is
// the full-transfer read.
type NodeStore interface {
	// SearchVectorFiltered with the zero Filter is the unfiltered
	// search.
	SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error)
	ApplyAll(ms []vecdb.Mutation) error
	Get(id int64) (vecdb.Document, error)
	Len() int
	NextID() int64
	Seq() uint64
	Checksum() uint64
	CollectionCounts() map[string]int
	MutationsSince(since uint64, max int) ([]vecdb.SeqMutation, error)
	ApplyResync(ms []vecdb.SeqMutation) error
	SnapshotDocs() (uint64, []vecdb.Document, error)
	ApplySnapshot(seq uint64, docs []vecdb.Document) error
}

var _ NodeStore = (*vecdb.DB)(nil)

// hitJSON is the wire form of a vecdb.Hit.
type hitJSON struct {
	ID         int64             `json:"id"`
	Score      float64           `json:"score"`
	Collection string            `json:"collection,omitempty"`
	Text       string            `json:"text"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// mutationJSON is the wire form of a vecdb.Mutation.
type mutationJSON struct {
	Op         string            `json:"op"`
	ID         int64             `json:"id"`
	Collection string            `json:"collection,omitempty"`
	Text       string            `json:"text,omitempty"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// seqMutationJSON is the wire form of a vecdb.SeqMutation (the resync
// delta unit).
type seqMutationJSON struct {
	Seq uint64 `json:"seq"`
	mutationJSON
}

// docJSON is the wire form of a stored document in snapshot
// transfers.
type docJSON struct {
	ID         int64             `json:"id"`
	Collection string            `json:"collection,omitempty"`
	Text       string            `json:"text"`
	Meta       map[string]string `json:"meta,omitempty"`
}

func toMutationJSON(m vecdb.Mutation) (mutationJSON, error) {
	switch m.Op {
	case vecdb.OpAdd:
		return mutationJSON{Op: "add", ID: m.ID, Collection: m.Collection, Text: m.Text, Meta: m.Meta}, nil
	case vecdb.OpDelete:
		return mutationJSON{Op: "delete", ID: m.ID, Collection: m.Collection}, nil
	}
	return mutationJSON{}, fmt.Errorf("cluster: unknown mutation op %d", m.Op)
}

func fromMutationJSON(m mutationJSON) (vecdb.Mutation, error) {
	switch m.Op {
	case "add":
		return vecdb.Mutation{Op: vecdb.OpAdd, ID: m.ID, Collection: m.Collection, Text: m.Text, Meta: m.Meta}, nil
	case "delete":
		return vecdb.Mutation{Op: vecdb.OpDelete, ID: m.ID, Collection: m.Collection}, nil
	}
	return vecdb.Mutation{}, fmt.Errorf("cluster: unknown mutation op %q", m.Op)
}

// NewNodeHandler serves the shard protocol over store. ready gates
// /readyz (and the data endpoints): a node that is still replaying its
// WAL answers probes with 503 so the router keeps routing around it
// until recovery completes. A nil ready means always ready.
func NewNodeHandler(store NodeStore, ready func() bool) *NodeHandler {
	if ready == nil {
		ready = func() bool { return true }
	}
	n := &NodeHandler{store: store, ready: ready, mux: http.NewServeMux()}
	n.mux.HandleFunc("/healthz", n.handleHealthz)
	n.mux.HandleFunc("/readyz", n.handleReadyz)
	n.mux.HandleFunc("/shard/search", n.handleSearch)
	n.mux.HandleFunc("/shard/apply", n.handleApply)
	n.mux.HandleFunc("/shard/documents/", n.handleDocument)
	n.mux.HandleFunc("/shard/stat", n.handleStat)
	n.mux.HandleFunc("/shard/mutations", n.handleMutations)
	n.mux.HandleFunc("/shard/resync", n.handleResync)
	n.mux.HandleFunc("/shard/snapshot", n.handleSnapshot)
	n.mux.HandleFunc("/shard/epoch", n.handleEpoch)
	return n
}

// NodeHandler serves the shard protocol for one node (see the package
// comment above for the wire format). It holds the last ring update
// the node was handed, which is what lets a retired node bounce stale
// traffic toward the new assignment.
type NodeHandler struct {
	store NodeStore
	ready func() bool
	mux   *http.ServeMux
	ring  atomic.Pointer[RingUpdate]
}

func (n *NodeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// Ring reports the last installed ring update, ok=false when the node
// was never handed one.
func (n *NodeHandler) Ring() (RingUpdate, bool) {
	if up := n.ring.Load(); up != nil {
		return *up, true
	}
	return RingUpdate{}, false
}

func nodeJSON(w http.ResponseWriter, status int, v interface{}) {
	// Encode before the status line: a value encoding/json refuses
	// (NaN, ±Inf) must become a 500, not the intended status with an
	// empty or cut body.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		log.Printf("cluster: encode response: %v", err)
		status = http.StatusInternalServerError
		buf.Reset()
		json.NewEncoder(&buf).Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func nodeError(w http.ResponseWriter, status int, err error) {
	nodeJSON(w, status, map[string]string{"error": err.Error()})
}

func (n *NodeHandler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodeJSON(w, http.StatusOK, map[string]interface{}{"status": "ok", "ready": n.ready()})
}

func (n *NodeHandler) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !n.ready() {
		nodeError(w, http.StatusServiceUnavailable, errors.New("recovering"))
		return
	}
	nodeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// gate rejects data-path requests until recovery completes, so a
// router that races the probe interval still cannot read a
// half-replayed shard. It then applies the ring-epoch gate: a node
// retired from the ring, or a request provably routed by an older
// ring than the node holds, is answered 409 with the current ring so
// the sender re-routes (the stale-epoch handshake). A node never
// handed a ring skips the epoch checks entirely.
func (n *NodeHandler) gate(w http.ResponseWriter, r *http.Request) bool {
	if !n.ready() {
		nodeError(w, http.StatusServiceUnavailable, errors.New("recovering"))
		return false
	}
	hdr := r.Header.Get(RingEpochHeader)
	var reqEpoch uint64
	if hdr != "" {
		e, err := ParseEpochHeader(hdr)
		if err != nil {
			nodeError(w, http.StatusBadRequest, err)
			return false
		}
		reqEpoch = e
	}
	cur := n.ring.Load()
	if cur == nil {
		return true
	}
	if !cur.Serving || (hdr != "" && reqEpoch < cur.Epoch) {
		nodeJSON(w, http.StatusConflict, map[string]interface{}{
			"error": "stale ring epoch",
			"epoch": cur.Epoch,
			"ring":  cur.Ring,
		})
		return false
	}
	return true
}

// handleEpoch is the ring-epoch control plane: GET reports the held
// ring, POST installs a new one. Installs are monotonic — an older
// epoch than the held one is refused with 409 plus the held ring —
// and an equal epoch is accepted so the orchestrator can toggle
// Serving (re-activating a retired node as a migration target)
// without minting an epoch. Deliberately not behind gate: a node can
// learn the ring while still replaying its WAL, and a retired node
// must accept the ring that re-activates it.
func (n *NodeHandler) handleEpoch(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		cur := n.ring.Load()
		if cur == nil {
			nodeJSON(w, http.StatusOK, map[string]interface{}{"epoch": 0, "serving": true})
			return
		}
		nodeJSON(w, http.StatusOK, map[string]interface{}{"epoch": cur.Epoch, "serving": cur.Serving, "ring": cur.Ring})
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRingPayloadSize+1))
		if err != nil {
			nodeError(w, http.StatusBadRequest, err)
			return
		}
		if len(body) > maxRingPayloadSize {
			nodeError(w, http.StatusBadRequest, fmt.Errorf("ring payload exceeds %d bytes", maxRingPayloadSize))
			return
		}
		var up RingUpdate
		if err := json.Unmarshal(body, &up); err != nil {
			nodeError(w, http.StatusBadRequest, fmt.Errorf("parse ring update: %w", err))
			return
		}
		if err := up.Ring.Validate(); err != nil {
			nodeError(w, http.StatusBadRequest, err)
			return
		}
		for {
			cur := n.ring.Load()
			if cur != nil && up.Epoch < cur.Epoch {
				nodeJSON(w, http.StatusConflict, map[string]interface{}{
					"error": "stale ring epoch",
					"epoch": cur.Epoch,
					"ring":  cur.Ring,
				})
				return
			}
			if n.ring.CompareAndSwap(cur, &up) {
				break
			}
		}
		nodeJSON(w, http.StatusOK, map[string]interface{}{"epoch": up.Epoch, "serving": up.Serving})
	default:
		nodeError(w, http.StatusMethodNotAllowed, errors.New("GET or POST required"))
	}
}

func (n *NodeHandler) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		nodeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if !n.gate(w, r) {
		return
	}
	var req struct {
		Vec        []float32         `json:"vec"`
		K          int               `json:"k"`
		Collection string            `json:"collection,omitempty"`
		Filter     map[string]string `json:"filter,omitempty"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		nodeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Vec) == 0 || req.K <= 0 {
		nodeError(w, http.StatusBadRequest, errors.New("empty vector or non-positive k"))
		return
	}
	hits, err := n.store.SearchVectorFiltered(req.Vec, req.K, vecdb.Filter{Collection: req.Collection, Meta: req.Filter})
	if err != nil {
		nodeError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]hitJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, hitJSON{ID: h.ID, Score: h.Score, Collection: h.Collection, Text: h.Text, Meta: h.Meta})
	}
	nodeJSON(w, http.StatusOK, map[string]interface{}{"hits": out})
}

func (n *NodeHandler) handleApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		nodeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if !n.gate(w, r) {
		return
	}
	var req struct {
		Mutations []mutationJSON `json:"mutations"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		nodeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Mutations) == 0 {
		nodeError(w, http.StatusBadRequest, errors.New("empty mutation batch"))
		return
	}
	ms := make([]vecdb.Mutation, len(req.Mutations))
	for i, mj := range req.Mutations {
		m, err := fromMutationJSON(mj)
		if err != nil {
			nodeError(w, http.StatusBadRequest, err)
			return
		}
		ms[i] = m
	}
	if err := n.store.ApplyAll(ms); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vecdb.ErrNotFound) {
			status = http.StatusNotFound
		}
		nodeError(w, status, err)
		return
	}
	nodeJSON(w, http.StatusOK, map[string]int{"applied": len(ms)})
}

func (n *NodeHandler) handleDocument(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		nodeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if !n.gate(w, r) {
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/shard/documents/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || id <= 0 {
		nodeError(w, http.StatusBadRequest, fmt.Errorf("bad document id %q", idStr))
		return
	}
	doc, err := n.store.Get(id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vecdb.ErrNotFound) {
			status = http.StatusNotFound
		}
		nodeError(w, status, err)
		return
	}
	nodeJSON(w, http.StatusOK, docJSON{ID: doc.ID, Collection: doc.Collection, Text: doc.Text, Meta: doc.Meta})
}

func (n *NodeHandler) handleStat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		nodeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if !n.gate(w, r) {
		return
	}
	nodeJSON(w, http.StatusOK, ShardStat{
		Len:         n.store.Len(),
		NextID:      n.store.NextID(),
		Seq:         n.store.Seq(),
		Checksum:    n.store.Checksum(),
		Collections: n.store.CollectionCounts(),
	})
}

// handleMutations serves the journaled delta past ?since= (capped at
// ?max= records). A journal that no longer retains the range answers
// 410 Gone — the snapshot-fallback signal.
func (n *NodeHandler) handleMutations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		nodeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if !n.gate(w, r) {
		return
	}
	q := r.URL.Query()
	since, err := strconv.ParseUint(q.Get("since"), 10, 64)
	if err != nil {
		nodeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", q.Get("since")))
		return
	}
	max := 0
	if s := q.Get("max"); s != "" {
		if max, err = strconv.Atoi(s); err != nil || max < 0 {
			nodeError(w, http.StatusBadRequest, fmt.Errorf("bad max %q", s))
			return
		}
	}
	ms, err := n.store.MutationsSince(since, max)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vecdb.ErrSeqTruncated) {
			status = http.StatusGone
		}
		nodeError(w, status, err)
		return
	}
	out := make([]seqMutationJSON, 0, len(ms))
	for _, m := range ms {
		mj, err := toMutationJSON(m.Mutation)
		if err != nil {
			nodeError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, seqMutationJSON{Seq: m.Seq, mutationJSON: mj})
	}
	nodeJSON(w, http.StatusOK, map[string]interface{}{"mutations": out, "seq": n.store.Seq()})
}

// handleResync applies a shipped delta under its explicit sequence
// numbers.
func (n *NodeHandler) handleResync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		nodeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if !n.gate(w, r) {
		return
	}
	var req struct {
		Mutations []seqMutationJSON `json:"mutations"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		nodeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Mutations) == 0 {
		nodeError(w, http.StatusBadRequest, errors.New("empty resync batch"))
		return
	}
	ms := make([]vecdb.SeqMutation, len(req.Mutations))
	for i, mj := range req.Mutations {
		m, err := fromMutationJSON(mj.mutationJSON)
		if err != nil {
			nodeError(w, http.StatusBadRequest, err)
			return
		}
		ms[i] = vecdb.SeqMutation{Seq: mj.Seq, Mutation: m}
	}
	if err := n.store.ApplyResync(ms); err != nil {
		nodeError(w, http.StatusInternalServerError, err)
		return
	}
	nodeJSON(w, http.StatusOK, map[string]interface{}{"applied": len(ms), "seq": n.store.Seq()})
}

// handleSnapshot serves the full document set on GET and replaces the
// node's contents with an uploaded one on POST.
func (n *NodeHandler) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !n.gate(w, r) {
		return
	}
	switch r.Method {
	case http.MethodGet:
		seq, docs, err := n.store.SnapshotDocs()
		if err != nil {
			nodeError(w, http.StatusInternalServerError, err)
			return
		}
		out := make([]docJSON, 0, len(docs))
		for _, d := range docs {
			out = append(out, docJSON{ID: d.ID, Collection: d.Collection, Text: d.Text, Meta: d.Meta})
		}
		nodeJSON(w, http.StatusOK, map[string]interface{}{"seq": seq, "docs": out})
	case http.MethodPost:
		var req struct {
			Seq  uint64    `json:"seq"`
			Docs []docJSON `json:"docs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			nodeError(w, http.StatusBadRequest, err)
			return
		}
		docs := make([]vecdb.Document, len(req.Docs))
		for i, d := range req.Docs {
			docs[i] = vecdb.Document{ID: d.ID, Collection: d.Collection, Text: d.Text, Meta: d.Meta}
		}
		if err := n.store.ApplySnapshot(req.Seq, docs); err != nil {
			nodeError(w, http.StatusInternalServerError, err)
			return
		}
		nodeJSON(w, http.StatusOK, map[string]interface{}{"docs": len(docs), "seq": n.store.Seq()})
	default:
		nodeError(w, http.StatusMethodNotAllowed, errors.New("GET or POST required"))
	}
}
