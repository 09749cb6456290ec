package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Flags every server gets. Both make a run repeat: fsync cost is the
// disk's, not the program's, and a timer checkpoint would land at a
// random point of the measured window (the default period is 30 s).
// Checkpoints happen only where a workload asks for one.
var repeatableFlags = []string{"-fsync", "never", "-checkpoint-every", "-1s"}

// stackSpec says which processes a workload runs.
type stackSpec struct {
	// frontArgs are ragserver's workload-specific flags.
	frontArgs []string
	// nodes > 0 runs that many shardnodes with ragserver routing to
	// them (-cluster); 0 keeps the shards inside ragserver (-data-dir).
	nodes int
}

// stack is one booted set of server processes over one data
// directory. Ports and directories are fixed for the stack's life, so
// a kill + boot cycle restarts the same deployment.
type stack struct {
	sup   *supervisor
	dir   string
	front *proc
	nodes []*proc
	base  string // ragserver's URL
}

func newStack(sup *supervisor, bin, dir string, spec stackSpec) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{sup: sup, dir: dir}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s.base = "http://" + addr
	front := &proc{name: "ragserver", bin: filepath.Join(bin, "ragserver"), addr: addr, log: filepath.Join(dir, "ragserver.log")}
	front.args = append([]string{"-addr", addr}, spec.frontArgs...)
	if spec.nodes == 0 {
		front.args = append(front.args, "-data-dir", filepath.Join(dir, "data"))
		front.args = append(front.args, repeatableFlags...)
	} else {
		var urls []string
		for i := 0; i < spec.nodes; i++ {
			naddr, err := freeAddr()
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("shardnode-%d", i)
			n := &proc{name: name, bin: filepath.Join(bin, "shardnode"), addr: naddr, log: filepath.Join(dir, name+".log")}
			n.args = append([]string{"-addr", naddr, "-data-dir", filepath.Join(dir, name)}, repeatableFlags...)
			s.nodes = append(s.nodes, n)
			urls = append(urls, fmt.Sprintf(`{"primary":"http://%s"}`, naddr))
		}
		topo := filepath.Join(dir, "nodes.json")
		if err := os.WriteFile(topo, []byte(`{"shards":[`+strings.Join(urls, ",")+`]}`), 0o644); err != nil {
			return nil, err
		}
		// The default 1 s probe period quantises how soon the router
		// sees a restarted node; 100 ms keeps recovery_s continuous.
		front.args = append(front.args, "-cluster", topo, "-probe-interval", "100ms")
	}
	s.front = front
	return s, nil
}

// procs lists every process of the stack, shard nodes first.
func (s *stack) procs() []*proc { return append(append([]*proc(nil), s.nodes...), s.front) }

// boot starts every process and returns once ragserver's /readyz
// answers 200. Shard nodes are brought to ready before the router
// starts: a router that finds a node down retries only every 500 ms,
// which would quantise the measured boot time.
func (s *stack) boot(c *http.Client) error {
	for _, n := range s.nodes {
		if err := s.sup.start(n); err != nil {
			return err
		}
	}
	for _, n := range s.nodes {
		if err := waitReady(c, n); err != nil {
			return err
		}
	}
	if err := s.sup.start(s.front); err != nil {
		return err
	}
	return waitReady(c, s.front)
}

// kill SIGKILLs every process of the stack and waits for them.
func (s *stack) kill() {
	for _, p := range s.procs() {
		s.sup.kill(p)
	}
}

// destroy kills the stack and removes its directory.
func (s *stack) destroy() error {
	s.kill()
	return os.RemoveAll(s.dir)
}

const (
	bootTimeout = 60 * time.Second
	// pollTimeout bounds one readiness probe, so a probe that gets no
	// answer costs a second of the boot and not all of it.
	pollTimeout = time.Second
)

// waitReady polls p's /readyz until it answers 200. The poll period
// bounds the resolution of every boot and recovery time, so it is
// short; a refused connection costs microseconds on loopback.
func waitReady(c *http.Client, p *proc) error {
	url := "http://" + p.addr + "/readyz"
	ready := false
	waitUntil(time.Now().Add(bootTimeout), 2*time.Millisecond, func() bool {
		if p.exited() {
			return true
		}
		ctx, cancel := context.WithTimeout(context.Background(), pollTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return false
		}
		resp, err := c.Do(req)
		if err != nil {
			return false
		}
		resp.Body.Close()
		ready = resp.StatusCode == http.StatusOK
		return ready
	})
	switch {
	case ready:
		return nil
	case p.exited():
		return fmt.Errorf("%s exited while booting; log tail:\n%s", p.name, tailFile(p.log, 2000))
	}
	return fmt.Errorf("%s not ready after %v; log tail:\n%s", p.name, bootTimeout, tailFile(p.log, 2000))
}

// rssAll sums one resident-set field (VmHWM or VmRSS) over every
// process of the stack, in MB.
func (s *stack) rssAll(field string) (float64, error) {
	var sum float64
	for _, p := range s.procs() {
		mb, err := statusMB(p.pid(), field)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}
