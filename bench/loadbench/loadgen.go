package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the connection (and client goroutine) budget: the load
// generator shares the box's cores with the servers it measures, so
// it never opens more connections than there are cores.
func maxConns() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// conns is the fixed set of HTTP connections a run uses for
// everything it sends — set-up, warm-up, the measured window and the
// recovery probes. Each client owns a transport capped at one
// connection, so len(conns) bounds the sockets open at any moment.
type conns []*http.Client

func newConns(n int) conns {
	cs := make(conns, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				IdleConnTimeout:     5 * time.Minute,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func (cs conns) close() {
	for _, c := range cs {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// request is one pre-built operation of a measured window.
type request struct {
	due   time.Duration // scheduled send time, from the window start
	path  string        // route, e.g. /search
	body  []byte
	query bool // counts toward the latency percentiles (search/ask/verify)
	limit time.Duration
}

// result is what came back, kept raw; checking happens after the
// window so the generator does no parsing while it is timing.
type result struct {
	free   time.Duration // when the connection that sent it became idle
	sent   time.Duration
	done   time.Duration
	status int
	body   []byte
	err    error
}

// latency is measured from the scheduled send time, not the actual
// one: if a stall delays later sends, their wait is counted (no
// coordinated omission).
func (r result) latency(q request) time.Duration { return r.done - q.due }

// ownLate is how late the generator itself was: the gap between the
// moment the request could have gone (it was due and a connection was
// idle) and the moment it went. Server-imposed queueing is excluded —
// that is latency, not generator error.
func (r result) ownLate(q request) time.Duration {
	ready := q.due
	if r.free > ready {
		ready = r.free
	}
	return r.sent - ready
}

// lane is a set of requests, in due order, served by its own
// connections. Requests in one lane share its connections; lanes do
// not share.
type lane struct {
	reqs  []int // indexes into the window's request slice
	conns conns
}

// runWindow sends reqs open-loop: each request is claimed in due order
// by the next idle connection of its lane, which sleeps until the due
// time and sends. It returns when every request has completed.
func runWindow(base string, reqs []request, lanes []lane) []result {
	res := make([]result, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, ln := range lanes {
		ln := ln
		var next atomic.Int64
		for _, c := range ln.conns {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ln.reqs) {
						return
					}
					idx := ln.reqs[i]
					q := reqs[idx]
					free := time.Since(t0)
					if wait := q.due - free; wait > 0 {
						time.Sleep(wait)
					}
					r := result{free: free, sent: time.Since(t0)}
					r.status, r.body, r.err = post(c, base+q.path, q.body)
					r.done = time.Since(t0)
					res[idx] = r
				}
			}()
		}
	}
	wg.Wait()
	return res
}

// post sends one POST and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read %s response: %w", url, err)
	}
	return resp.StatusCode, b, nil
}

// get fetches url and returns the body of a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}
