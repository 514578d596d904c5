package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/docroot"
	"repro/internal/metrics"
	"repro/internal/mtserver"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/surge"
)

// snapshot is one server process's counters, printed by the child as a
// JSON line on each "snap" command and once more at shutdown. CPU time
// and context switches come from getrusage(RUSAGE_SELF), which sums
// every thread of the process (live and exited) at microsecond
// resolution; /proc/<pid>/stat would give 10 ms ticks and
// /proc/self/status counts the main thread only.
type snapshot struct {
	Kind           string             `json:"kind"`
	Pid            int                `json:"pid"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	CPUMicros      int64              `json:"cpu_us"`
	Ctxsw          int64              `json:"ctxsw"`
	Mallocs        uint64             `json:"mallocs"`
	Replies        int64              `json:"replies"`
	BytesOut       int64              `json:"bytes_out"`
	SendfileBytes  int64              `json:"sendfile_bytes"`
	UpstreamDials  int64              `json:"upstream_dials"`
	UpstreamReuses int64              `json:"upstream_reuses"`
	Stats          json.RawMessage    `json:"stats"`
	Docroot        *docroot.Stats     `json:"docroot,omitempty"`
	PhaseP50us     map[string]float64 `json:"phase_p50_us,omitempty"`
}

// buildPopulation builds the fixed SURGE object set. Every process
// builds the same one; the children never see the workload seed, so the
// request stream cannot leak into the servers.
func buildPopulation() (*surge.ObjectSet, surge.Config, error) {
	cfg := surge.DefaultConfig()
	cfg.NumObjects = popObjects
	set, err := surge.BuildObjectSet(cfg, dist.NewRNG(popSeed))
	return set, cfg, err
}

// server is the part of each server type the child drives.
type server interface {
	Start() error
	Drain(time.Duration) bool
	Addr() string
}

// serveMain runs one server under test until its control stream says
// "stop" or closes. Protocol on stdout: one ready line, then one
// snapshot line per "snap" on stdin, then a final snapshot.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	kind := fs.String("kind", "", "nio | mt | proxy | ref")
	dir := fs.String("docroot", "", "serve this materialized docroot instead of memory")
	backend := fs.String("backend", "", "proxy: backend address")
	traced := fs.Bool("obs", false, "set Config.Obs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, scfg, err := buildPopulation()
	if err != nil {
		return err
	}
	var plane *obs.Plane
	if *traced {
		plane = obs.NewPlane(1 << 12)
	}
	var store core.Store = core.NewSurgeStore(set, scfg.MaxObjectBytes, contentSeed)
	var root *docroot.Root
	if *dir != "" {
		if root, err = docroot.Open(*dir, cacheBytes); err != nil {
			return err
		}
		store = nil
	}

	var srv server
	var fill func(*snapshot)
	switch *kind {
	case "nio":
		cfg := core.DefaultConfig(store)
		cfg.Shards = 1
		cfg.Docroot = root
		cfg.Obs = plane
		s, err := core.NewServer(cfg)
		if err != nil {
			return err
		}
		srv = s
		fill = func(sn *snapshot) {
			st := s.Stats()
			sn.Replies, sn.BytesOut, sn.SendfileBytes = st.Replies, st.BytesOut, st.SendfileBytes
			sn.Stats, _ = json.Marshal(st)
		}
	case "mt":
		cfg := mtserver.DefaultConfig(store)
		cfg.Docroot = root
		cfg.Obs = plane
		s, err := mtserver.NewServer(cfg)
		if err != nil {
			return err
		}
		srv = s
		fill = func(sn *snapshot) {
			st := s.Stats()
			sn.Replies, sn.BytesOut, sn.SendfileBytes = st.Replies, st.BytesOut, st.SendfileBytes
			sn.Stats, _ = json.Marshal(st)
		}
	case "proxy":
		cfg := proxy.DefaultConfig([]proxy.BackendConfig{{Addr: *backend, Name: "b0"}})
		cfg.ProbeEvery = 0 // probes would add backend replies the generator never sent
		cfg.Obs = plane
		t, err := proxy.NewTier(cfg, 1)
		if err != nil {
			return err
		}
		srv = t
		fill = func(sn *snapshot) {
			st := t.Stats()
			sn.Replies, sn.BytesOut = st.Replies, st.BytesOut
			sn.UpstreamDials, sn.UpstreamReuses = st.UpstreamDials, st.UpstreamReuses
			sn.Stats, _ = json.Marshal(st)
		}
	case "ref":
		r, err := newRefServer(set, docroot.SurgeBlob(scfg.MaxObjectBytes, contentSeed))
		if err != nil {
			return err
		}
		srv = r
		fill = func(sn *snapshot) {
			sn.Replies = r.replies.Load()
			sn.Stats, _ = json.Marshal(map[string]int64{"Replies": sn.Replies})
		}
	default:
		return fmt.Errorf("unknown server kind %q", *kind)
	}
	if err := srv.Start(); err != nil {
		return err
	}

	snap := func() snapshot {
		sn := snapshot{Kind: *kind, Pid: os.Getpid(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		sn.CPUMicros = tvMicros(ru.Utime) + tvMicros(ru.Stime)
		sn.Ctxsw = ru.Nvcsw + ru.Nivcsw
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sn.Mallocs = ms.Mallocs
		fill(&sn)
		if root != nil {
			st := root.Stats()
			sn.Docroot = &st
		}
		if plane != nil {
			sn.PhaseP50us = map[string]float64{
				"queue_wait": phaseP50(plane, func(p *obs.Phases) *metrics.Histogram { return p.QueueWait }),
				"parse":      phaseP50(plane, func(p *obs.Phases) *metrics.Histogram { return p.Parse }),
				"handler":    phaseP50(plane, func(p *obs.Phases) *metrics.Histogram { return p.Handler }),
				"write":      phaseP50(plane, func(p *obs.Phases) *metrics.Histogram { return p.Write }),
			}
		}
		return sn
	}

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"addr": srv.Addr(), "gomaxprocs": runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() && in.Text() == "snap" {
		if err := out.Encode(snap()); err != nil {
			return err
		}
	}
	// "stop" or a closed control stream (the parent is gone).
	srv.Drain(2 * time.Second)
	return out.Encode(snap())
}

func phaseP50(pl *obs.Plane, get func(*obs.Phases) *metrics.Histogram) float64 {
	d := pl.PhaseDist(get)
	if d.Count() == 0 {
		return 0
	}
	return d.Quantile(0.5) * 1e6
}

func tvMicros(tv syscall.Timeval) int64 { return tv.Sec*1e6 + tv.Usec }

// child is the parent's handle on one server process.
type child struct {
	kind       string
	addr       string
	gomaxprocs int
	cmd        *exec.Cmd
	in         io.WriteCloser
	out        *bufio.Reader
	// direct counts replies this process served to the layer drivers
	// rather than to its target's front end.
	direct int64
}

// spawn starts a server child running this same binary with
// GOMAXPROCS=1 and waits for its ready line.
func spawn(kind, dir, backend string, traced bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-kind", kind, "-docroot", dir, "-backend", backend, fmt.Sprintf("-obs=%v", traced)}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", kind, err)
	}
	c := &child{kind: kind, cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	var ready struct {
		Addr       string `json:"addr"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	}
	if err := c.readLine(&ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("spawn %s: %w", kind, err)
	}
	c.addr, c.gomaxprocs = ready.Addr, ready.GOMAXPROCS
	return c, nil
}

func (c *child) readLine(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("%s server exited", c.kind)
		}
		return err
	}
	return json.Unmarshal(line, v)
}

func (c *child) snap() (snapshot, error) {
	var sn snapshot
	if _, err := io.WriteString(c.in, "snap\n"); err != nil {
		return sn, fmt.Errorf("%s server: %w", c.kind, err)
	}
	return sn, c.readLine(&sn)
}

// stop drains the server and returns its final counters. The final
// line is read before waiting: Wait closes the pipe it arrives on.
func (c *child) stop() (snapshot, error) {
	var sn snapshot
	_, werr := io.WriteString(c.in, "stop\n")
	c.in.Close()
	err := c.readLine(&sn)
	if waitErr := c.wait(5 * time.Second); waitErr != nil && err == nil {
		err = waitErr
	}
	if werr != nil && err == nil {
		err = fmt.Errorf("%s server: %w", c.kind, werr)
	}
	return sn, err
}

// wait reaps the child, killing it if it outlives timeout.
func (c *child) wait(timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill() // it may exit on its own meanwhile
		<-done
		return fmt.Errorf("%s server did not exit", c.kind)
	}
}

// kill ends the child without a drain and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	c.in.Close()
	_ = c.cmd.Wait() // killed: the exit status says so
}
