package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"bolt"
)

// proc is one server child process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait has returned
}

// startProc execs bin in dir with the given GOMAXPROCS, logging its
// output to dir/<name>.log. The child is killed if the benchmark dies,
// so an interrupted run leaves no servers behind.
func startProc(dir, name, bin string, gomaxprocs int, args ...string) (*proc, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: log, exited: make(chan struct{})}
	go func() { //bolt:goroutine p.exited
		_ = cmd.Wait() // the exit status of a signalled server carries nothing
		log.Close()
		close(p.exited)
	}()
	return p, nil
}

// stop interrupts the process, which drains and exits, and waits for it;
// a process that ignores the interrupt is killed.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(os.Interrupt) // fails only when it already exited
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// cpuTime is the CPU time (user+sys, every thread) a running process has
// used so far, read from the kernel's CPU clock for that process, which
// counts nanoseconds where /proc/<pid>/stat counts 10 ms ticks.
func (p *proc) cpuTime() (time.Duration, error) {
	const cpuClockSched = 2 // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	clock := int32(^p.cmd.Process.Pid)<<3 | cpuClockSched
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of %s: %w", p.name, e)
	}
	return time.Duration(ts.Nano()), nil
}

// sample reads CPU time (see cpuTime) and peak resident set (VmHWM,
// /proc/<pid>/status) of a running process.
func (p *proc) sample() (cpu time.Duration, hwmKB int64, err error) {
	if cpu, err = p.cpuTime(); err != nil {
		return 0, 0, err
	}
	pid := p.cmd.Process.Pid
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			hwmKB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return cpu, hwmKB, err
		}
	}
	return 0, 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// topology is a running serving tier: one bolt-serve, or bolt-router in
// front of two backends. addr is where clients connect; backends are the
// server sockets, which the benchmark also queries directly for stats.
type topology struct {
	servers  []*proc
	router   *proc
	addr     string
	backends []string
	spans    []string // traced hosts' span files, one per server
}

func (t *topology) stop() {
	if t.router != nil {
		t.router.stop()
	}
	for _, s := range t.servers {
		s.stop()
	}
}

// cpuTime is the CPU time every process of the tier has used so far.
func (t *topology) cpuTime() (time.Duration, error) {
	procs := t.servers
	if t.router != nil {
		procs = append(procs[:len(procs):len(procs)], t.router)
	}
	var sum time.Duration
	for _, p := range procs {
		c, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// start brings the workload's tier up in runDir and returns it with the
// wall time from exec until it could serve (OpHealth ready on the
// server, or, routed, both backends ready and the router reporting both
// up) and the CPU time its processes used by then. With traced set, each
// bolt-serve is replaced by this binary's host mode. tag names this
// start's logs and span files.
func (b *bench) start(w workload, model, runDir string, traced bool, tag string) (*topology, time.Duration, time.Duration, error) {
	t := &topology{}
	names := []string{"s"}
	workers, gomaxprocs := 0, b.nproc
	if w.routed {
		names, workers, gomaxprocs = []string{"b0", "b1"}, 1, 1
	}
	t0 := time.Now()
	for _, n := range names {
		sock := n + ".sock"
		var p *proc
		var err error
		if traced {
			spans := n + "-" + tag + ".spans.json"
			t.spans = append(t.spans, filepath.Join(runDir, spans))
			p, err = startProc(runDir, n+"-"+tag, b.self, gomaxprocs, "host", "-model", model, "-socket", sock,
				"-workers", strconv.Itoa(workers), "-spans", spans)
		} else {
			p, err = startProc(runDir, n+"-"+tag, b.bins.serve, gomaxprocs, "-model", model, "-socket", sock,
				"-workers", strconv.Itoa(workers))
		}
		if err != nil {
			t.stop()
			return nil, 0, 0, err
		}
		t.servers = append(t.servers, p)
		t.backends = append(t.backends, filepath.Join(runDir, sock))
	}
	for i, p := range t.servers {
		if err := waitReady(p, t.backends[i], 0); err != nil {
			t.stop()
			return nil, 0, 0, err
		}
	}
	t.addr = t.backends[0]
	if w.routed {
		p, err := startProc(runDir, "router-"+tag, b.bins.router, b.nproc,
			"-listen", "unix:r.sock", "-backends", "unix:b0.sock,unix:b1.sock")
		if err != nil {
			t.stop()
			return nil, 0, 0, err
		}
		t.router = p
		t.addr = filepath.Join(runDir, "r.sock")
		if err := waitReady(p, t.addr, len(names)); err != nil {
			t.stop()
			return nil, 0, 0, err
		}
	}
	wall := time.Since(t0)
	cpu, err := t.cpuTime()
	if err != nil {
		t.stop()
		return nil, 0, 0, err
	}
	return t, wall, cpu, nil
}

// waitReady polls addr until OpHealth reports ready and, for a router,
// its stats show the given number of backends up.
func waitReady(p *proc, addr string, backends int) error {
	deadline := time.Now().Add(60 * time.Second)
	for !ready(addr, backends) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready (see %s)", p.name, p.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 60s (see %s)", p.name, p.log.Name())
		}
		nanosleep(200 * time.Microsecond)
	}
	return nil
}

func ready(addr string, backends int) bool {
	c, err := bolt.DialServiceTimeout("unix:"+addr, time.Second)
	if err != nil {
		return false
	}
	defer c.Close()
	if h, err := c.Health(); err != nil || h.State != bolt.HealthReady {
		return false
	}
	if backends == 0 {
		return true
	}
	st, err := c.Stats()
	if err != nil || st.Router == nil {
		return false
	}
	up := 0
	for _, b := range st.Router.Backends {
		if b.State == bolt.BackendUp {
			up++
		}
	}
	return up == backends
}

// stats fetches one OpStats snapshot.
func stats(addr string) (bolt.ServerStats, error) {
	c, err := bolt.DialServiceTimeout("unix:"+addr, 5*time.Second)
	if err != nil {
		return bolt.ServerStats{}, err
	}
	defer c.Close()
	return c.Stats()
}
