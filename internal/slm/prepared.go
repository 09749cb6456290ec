package slm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/textproc"
	"repro/internal/tokenizer"
)

// The model-independent half of a CalibratedVerifier call: what the
// verifiers read of a context and of a claim, prepared once and shared
// by every verifier in the process. Each entry is a pure function of
// text — the evidence features, and the token window under the
// tokenizer and MaxSeq every CalibratedVerifier has — so which verifier
// prepared an entry, and whether it was evicted between two calls,
// changes no result.

// contextSlots is how many recently seen contexts the process keeps
// prepared. A triple's sentences all share one context, and a few
// triples verify at once, so a handful of slots serves them all; the
// bound keeps the memory of a stream of distinct contexts fixed.
const contextSlots = 16

// claimsPerContext bounds a prepared context's claim memo; a full memo
// starts over. A context is scored against the few sentences of the
// few responses about it, so a few hundred is far more than one holds.
const claimsPerContext = 256

// seedsPerContext bounds a prepared context's seed prefixes, one per
// (model, question) that has asked about it; a full list starts over.
const seedsPerContext = 16

// windowTok encodes every verifier's token window. It is never trained,
// so it is the byte-level tokenizer each verifier's network was built
// with, and safe for concurrent use.
var windowTok = tokenizer.New()

// prepared is the ring of contexts every CalibratedVerifier shares.
var prepared contextRing

// contextRing holds the last contextSlots prepared contexts. Lookups
// load the slots without a lock; a miss prepares the context outside
// any lock and replaces the oldest slot, so two calls that race on a
// new context may both prepare it, and each takes a slot.
type contextRing struct {
	next  atomic.Uint32
	slots [contextSlots]atomic.Pointer[preparedContext]
}

// context returns the prepared form of text.
func (r *contextRing) context(text string) *preparedContext {
	for i := range r.slots {
		if c := r.slots[i].Load(); c != nil && c.text == text {
			return c
		}
	}
	c := &preparedContext{text: text, ev: textproc.PrepareEvidence(text), claims: map[string]*claimAnalysis{}}
	r.slots[(r.next.Add(1)-1)%contextSlots].Store(c)
	return c
}

// preparedContext is one context read once: its evidence, and memos of
// the claims scored against it and of the misread-seed prefixes of the
// models that asked about it, under the context's own lock.
type preparedContext struct {
	text string
	ev   *textproc.Evidence

	mu     sync.Mutex
	claims map[string]*claimAnalysis
	seeds  []seedPrefix
}

// claimAnalysis is what every verifier reads of one claim against one
// context.
type claimAnalysis struct {
	features textproc.Features
	// window is the signature memo key (windowKey) of the last MaxSeq
	// tokens of the prompt, when the claim and the prompt's tail hold
	// that many; "" when the window reaches back into the question or
	// the context, and so is not the claim's alone.
	window string
}

// seedPrefix is the FNV-1a state of a misread seed after the prompt's
// "Answer: " for one (model, question) about the context.
type seedPrefix struct {
	model, question string
	state           uint64
}

// claim returns the analysis of claim against the context. Analysing
// runs outside the lock; two calls that race on a new claim both
// analyse it, to the same result.
func (c *preparedContext) claim(claim string) *claimAnalysis {
	c.mu.Lock()
	a, ok := c.claims[claim]
	c.mu.Unlock()
	if ok {
		return a
	}
	a = &claimAnalysis{features: c.ev.Features(claim)}
	// Encoding is word-local, and the leading space gives the claim's
	// first word the space token it has after "Answer:" in the prompt,
	// so once this text holds MaxSeq tokens they are the prompt's last.
	if ids := windowTok.EncodeTail(" "+claim+promptTail, idiosyncrasyConfig.MaxSeq); len(ids) == idiosyncrasyConfig.MaxSeq {
		a.window = windowKey(ids)
	}
	c.mu.Lock()
	if len(c.claims) >= claimsPerContext {
		clear(c.claims)
	}
	c.claims[claim] = a
	c.mu.Unlock()
	return a
}

// seed returns the FNV-1a state of the misread seed string
// "slm-misread:" + model + "|" + the prompt, taken up to and including
// the prompt's "Answer: ", for a question about the context.
func (c *preparedContext) seed(model, question string) uint64 {
	c.mu.Lock()
	for _, s := range c.seeds {
		if s.model == model && s.question == question {
			c.mu.Unlock()
			return s.state
		}
	}
	c.mu.Unlock()
	h := fnv1a(fnvOffset, "slm-misread:")
	for _, piece := range [...]string{model, "|", promptLead, question, promptContext, c.text, promptAnswer} {
		h = fnv1a(h, piece)
	}
	c.mu.Lock()
	if len(c.seeds) >= seedsPerContext {
		c.seeds = c.seeds[:0]
	}
	c.seeds = append(c.seeds, seedPrefix{model: model, question: question, state: h})
	c.mu.Unlock()
	return h
}

// FNV-1a, the hash under rng.HashString, continued piece by piece:
// fnv1a(fnv1a(fnvOffset, a), b) is the state HashString(a+b) finalizes.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// windowKey is the signature memo key of a token window: its ids as
// uvarints, a few bytes per token.
func windowKey(ids []int) string {
	key := make([]byte, 0, 256) // on the stack for windows up to 128 two-byte ids
	for _, id := range ids {
		key = binary.AppendUvarint(key, uint64(id))
	}
	return string(key)
}

// windowIDs decodes a windowKey.
func windowIDs(key string) []int {
	ids := make([]int, 0, len(key))
	for b := []byte(key); len(b) > 0; {
		id, n := binary.Uvarint(b)
		ids = append(ids, int(id))
		b = b[n:]
	}
	return ids
}
