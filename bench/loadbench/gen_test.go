package main

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// everything a scenario would send, in order.
func sent(t *testing.T, name string, seed int64) [][]request {
	t.Helper()
	sc, err := newScenario(name, smokeSizes, seed, 2)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return [][]request{sc.corpus(), sc.warmup(), sc.window(), {sc.probe()}}
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := sent(t, name, 7), sent(t, name, 7), sent(t, name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two scenarios from seed 7 differ in corpus, bodies or schedule", name)
		}
		// ask_verify's corpus and triples are its fixed labelled set; the
		// seed decides what is asked, in which order, and what repeats.
		if reflect.DeepEqual(a[2], c[2]) || (name != "ask_verify" && reflect.DeepEqual(a[0], c[0])) {
			t.Errorf("%s: seeds 7 and 8 produce the same corpus or window", name)
		}
		for i := 1; i < len(a[2]); i++ {
			if a[2][i].path == a[2][i-1].path && a[2][i].due < a[2][i-1].due {
				t.Errorf("%s: window not in due order at %d", name, i)
				break
			}
		}
	}
}

// quality on ask_verify is F1 over the window's distinct /verify
// triples; it can only read the same for every seed if every seed
// verifies the same ones.
func TestAskVerifySeedsVerifyTheSameTriples(t *testing.T) {
	triples := func(seed int64) map[string]bool {
		set := map[string]bool{}
		for _, q := range sent(t, "ask_verify", seed)[2] {
			if q.path == "/verify" {
				set[string(q.body)] = true
			}
		}
		return set
	}
	a, b := triples(7), triples(8)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("seeds 7 and 8 verify different sets of triples (%d and %d)", len(a), len(b))
	}
}

func TestVocabularyIsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range vocabulary {
		if seen[w] {
			t.Fatalf("vocabulary repeats %q", w)
		}
		seen[w] = true
	}
}

// stallServer answers every request after a short service time, except
// every stallEvery-th, which takes stall. It tracks how many
// connections are open at once.
type stallServer struct {
	*httptest.Server
	n          atomic.Int64
	mu         sync.Mutex
	open, peak int
}

const (
	stallEvery = 20
	stall      = 200 * time.Millisecond
)

func newStallServer() *stallServer {
	s := &stallServer{}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.n.Add(1)%stallEvery == 0 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch st {
		case http.StateNew:
			s.open++
			if s.open > s.peak {
				s.peak = s.open
			}
		case http.StateClosed, http.StateHijacked:
			s.open--
		}
	}
	s.Start()
	return s
}

// A stall on the server delays the sends queued behind it. Measured
// from the scheduled time, those requests' latencies include the wait
// (no coordinated omission); measured from the actual send they would
// look fast.
func TestLatencyCountsQueueingBehindAStall(t *testing.T) {
	srv := newStallServer()
	defer srv.Close()
	c := newConns(1)
	defer c.close()
	const n, rate = 60, 200.0 // a request every 5 ms: a 200 ms stall backs up ~40 of them
	due := schedule(n, rate)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{due: due[i], path: "/", query: true}
	}
	res := runWindow(srv.URL, reqs, sharedLane(reqs, c))

	var queued, fastFromSend int
	var maxLate time.Duration
	for i, r := range res {
		if !ok2xx(r) {
			t.Fatalf("request %d: status %d, err %v", i, r.status, r.err)
		}
		if i >= stallEvery && i < stallEvery+10 {
			// The ten requests right behind the stalled one.
			if r.latency(reqs[i]) > stall/2 {
				queued++
			}
			if r.done-r.sent < stall/10 {
				fastFromSend++
			}
		}
		if d := r.sent - reqs[i].due; d > maxLate {
			maxLate = d
		}
		if own := r.ownLate(reqs[i]); own > 50*time.Millisecond {
			t.Errorf("request %d: generator's own lateness %v; the queueing is the server's, not the generator's", i, own)
		}
	}
	if queued != 10 || fastFromSend != 10 {
		t.Errorf("of the 10 requests behind the stall, %d show the wait in their latency (want 10) while %d were served fast once sent (want 10)", queued, fastFromSend)
	}
	if maxLate < stall/2 {
		t.Errorf("latest send only %v after its due time; the stall should have delayed sends by about %v", maxLate, stall)
	}
}

func TestNeverMoreConnectionsThanCores(t *testing.T) {
	srv := newStallServer()
	defer srv.Close()
	c := newConns(maxConns())
	defer c.close()
	const n = 100
	due := schedule(n, 500)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{due: due[i], path: "/", body: bytes.Repeat([]byte("x"), 10)}
	}
	for i, r := range runWindow(srv.URL, reqs, sharedLane(reqs, c)) {
		if !ok2xx(r) {
			t.Fatalf("request %d: status %d, err %v", i, r.status, r.err)
		}
	}
	srv.mu.Lock()
	peak := srv.peak
	srv.mu.Unlock()
	if peak > maxConns() {
		t.Errorf("%d connections open at once, want at most %d", peak, maxConns())
	}
}
