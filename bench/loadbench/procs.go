package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// proc is one server child process. Every child runs in its own
// process group so killing the group takes any helper it spawned with
// it, and every child is registered with the supervisor so that exit,
// signal and timeout paths all reap the same set.
type proc struct {
	name string // "ragserver" or "shardnode-<i>"
	bin  string
	args []string
	env  []string // added to the benchmark's own environment
	addr string   // host:port the process listens on
	log  string   // file receiving stdout+stderr

	cmd *exec.Cmd
}

// supervisor owns every child the benchmark starts.
type supervisor struct {
	mu     sync.Mutex
	procs  map[*proc]struct{}
	closed bool // set by shutdown; start refuses afterwards
}

func newSupervisor() *supervisor { return &supervisor{procs: map[*proc]struct{}{}} }

// start launches p and registers it.
func (s *supervisor) start(p *proc) error {
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open log for %s: %w", p.name, err)
	}
	defer logf.Close() // the child holds its own descriptor after Start
	cmd := exec.Command(p.bin, p.args...)
	cmd.Env = append(os.Environ(), p.env...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig covers the one exit the supervisor cannot see: the
	// benchmark itself being SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	// Start and registration happen under the lock so that shutdown
	// either sees the child or prevents it.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("start %s: the run is shutting down", p.name)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	p.cmd = cmd
	s.procs[p] = struct{}{}
	return nil
}

// kill SIGKILLs p's process group and waits until the process has
// ended. Killing a process that is not running is a no-op.
func (s *supervisor) kill(p *proc) {
	s.mu.Lock()
	_, running := s.procs[p]
	delete(s.procs, p)
	s.mu.Unlock()
	if !running {
		return
	}
	// The negative pid addresses the whole group (Setpgid made the child
	// its leader). ESRCH means it already exited; Wait reaps it either way.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	_ = p.cmd.Wait() // exit status of a killed child carries no information
}

// shutdown reaps every registered child and refuses further starts;
// it is how every run ends, whether by return, signal or timeout.
func (s *supervisor) shutdown() {
	s.mu.Lock()
	s.closed = true
	ps := make([]*proc, 0, len(s.procs))
	for p := range s.procs {
		ps = append(ps, p)
	}
	s.mu.Unlock()
	for _, p := range ps {
		s.kill(p)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has ended on its own. Until kill
// reaps it, an ended child is a zombie: state Z in /proc/<pid>/stat.
func (p *proc) exited() bool {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.pid()), "stat"))
	if err != nil {
		return true
	}
	i := bytes.LastIndexByte(raw, ')')
	return i < 0 || i+2 >= len(raw) || raw[i+2] == 'Z'
}

// spinEnv marks a child of the benchmark as a keep-awake spinner.
const spinEnv = "LOADBENCH_SPIN"

// keepAwake starts one idle-priority busy loop per CPU, as children
// like any other, until the run ends. An open-loop workload at 15-25 %
// utilisation lets the box's vCPUs go idle between requests,
// and on this kind of sandbox a vCPU that has idled runs the next few
// milliseconds at anything between full and two-thirds speed, in
// episodes of seconds (README, "The box"). A vCPU that always has
// something runnable does not; SCHED_IDLE tasks run only when nothing
// else wants the CPU, so the servers lose nothing to them.
func (s *supervisor) keepAwake() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		p := &proc{name: fmt.Sprintf("spinner-%d", i), bin: self, env: []string{spinEnv + "=1"}, log: os.DevNull}
		if err := s.start(p); err != nil {
			return err
		}
	}
	return nil
}

// The benchmark re-executes itself as its spinners, so they need no
// binary of their own; this runs before main (and before a test
// binary's tests).
func init() {
	if os.Getenv(spinEnv) != "" {
		spin()
	}
}

// spin busy-loops on an idle-priority thread until the process is
// killed.
func spin() {
	runtime.LockOSThread()
	const schedIdle = 5 // SCHED_IDLE, <linux/sched.h>
	var prio int32      // struct sched_param{sched_priority}: must be 0 for SCHED_IDLE
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		// No SCHED_IDLE here: the weakest ordinary priority is the next
		// best thing. If that fails too the loop still only competes as an
		// equal, and the run's own lateness check judges the result.
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	}
	for {
	}
}

// freeAddr reserves a loopback port by binding and releasing it. The
// window between release and the child's bind is the usual race of
// this idiom; a child that loses it fails /readyz and the run aborts.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime/stime.
// Linux fixes it at 100 for every architecture Go supports.
const clockTick = 100

// cpuSeconds reads user+system CPU time consumed so far by pid (all
// threads) from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Field 2 (comm) may contain spaces; everything after the closing
	// parenthesis is space-separated, starting at field 3.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// statusMB reads one kB field of /proc/<pid>/status — VmHWM, the peak
// resident set, or VmRSS, the current one — in MB.
func statusMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// selfCPUSeconds is the benchmark process's own CPU time, for the
// loadgen.cpu_share honesty metric.
func selfCPUSeconds() float64 {
	s, err := cpuSeconds(os.Getpid())
	if err != nil {
		return 0
	}
	return s
}

// tailFile returns the last n bytes of path, for failure diagnostics.
func tailFile(path string, n int64) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return ""
	}
	off := st.Size() - n
	if off < 0 {
		off = 0
	}
	buf := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return ""
	}
	return string(buf)
}

// waitUntil polls cond every step until it holds or the deadline
// passes.
func waitUntil(deadline time.Time, step time.Duration, cond func() bool) bool {
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(step)
	}
}
