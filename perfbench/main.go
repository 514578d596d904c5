package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "pingpong | pipeline | churn")
	seed := fs.Uint64("seed", 1, "workload seed: draws the request streams")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for the materialized docroot")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	res, err := runBench(options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each by name with its unit.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-36s %14.4f %s\n", name, v, unit)
}

// setupHook, when set, sees each bench before its set-up (tests use it
// to corrupt one set-up pass).
var setupHook func(pass int, b *bench)

// runBench runs one workload: set-up (repeated, for a steady set-up
// time), alternating measured rounds, teardown with the Replies check,
// and in traced mode the layer drivers.
func runBench(o options, out io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	workdir, err := workdirFor(o.workdir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	host0 := readHostCPU()
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%d trace=%v %s\n", w.name, o.seed, o.seconds, o.trace, runRecord())

	// The docroot is written once per run, outside the timed set-up: on
	// this VM the time to create its 2000 files drifted from 0.06 s to
	// over 1 s within minutes while nothing else ran, and would have
	// dominated setup_s.
	var dir string
	if w.docroot {
		start := time.Now()
		if dir, err = materialize(workdir); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "run: docroot materialized in %.3f s\n", time.Since(start).Seconds())
	}
	reps := setupReps
	if o.trace {
		reps = 1 // set-up time is an end-to-end metric; the traced run does not report it
	}
	led := &ledger{}
	var setups []setupTimes
	var b *bench
	for i := 0; i < reps; i++ {
		if b, err = newBench(w, o.seed, workdir, o.trace, led); err != nil {
			return nil, err
		}
		b.dir = dir
		if setupHook != nil {
			setupHook(i, b)
		}
		st, err := b.setup()
		if err != nil {
			b.abort()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		if i < reps-1 {
			if _, err := b.teardown(); err != nil {
				return nil, err
			}
		}
	}
	procs := map[string]int{}
	for _, c := range b.children {
		procs[c.kind] = c.gomaxprocs
	}
	fmt.Fprintf(out, "run: gomaxprocs generator=%d servers=%v\n", runtime.GOMAXPROCS(0), procs)
	if w.fresh {
		fmt.Fprintf(out, "run: net.ipv4.tcp_tw_reuse=%s\n", readSysctl("net/ipv4/tcp_tw_reuse"))
	}
	if err := b.run(time.Duration(o.seconds) * time.Second); err != nil {
		b.abort()
		return nil, err
	}
	var lt *layerTrace
	if o.trace {
		if lt, err = traceLayers(b, workdir); err != nil {
			b.abort()
			return nil, fmt.Errorf("layer trace: %w", err)
		}
	}
	snaps, err := b.teardown()
	if err != nil {
		return nil, err
	}
	for _, s := range snaps {
		fmt.Fprintf(out, "server %s pid=%d gomaxprocs=%d replies=%d stats=%s", s.Kind, s.Pid, s.GOMAXPROCS, s.Replies, s.Stats)
		if s.Docroot != nil {
			fmt.Fprintf(out, " docroot=%+v", *s.Docroot)
		}
		fmt.Fprintln(out)
	}

	rep := &report{w: out, metrics: map[string]metric{}}
	for _, t := range b.targets {
		fmt.Fprintf(out, "rounds %-9s %d measured, %d replies validated\n", t.name, len(t.rounds), t.validated)
	}
	failFrac := 0.0
	if b.attempted > 0 {
		failFrac = float64(b.failed) / float64(b.attempted)
	}
	for _, t := range b.targets { // the raw values behind the relative metrics
		fmt.Fprintf(out, "%-36s %14.4f us\n", t.name+".p50_us", estimate(t.rounds, func(s roundStat) float64 { return s.p50us }))
		fmt.Fprintf(out, "%-36s %14.4f 1/s\n", t.name+".rps", estimate(t.rounds, func(s roundStat) float64 { return s.rps }))
		fmt.Fprintf(out, "%-36s %14.4f us\n", t.name+".cpu_us_per_req", estimate(t.rounds, func(s roundStat) float64 { return s.cpuPerReq }))
	}
	if o.trace {
		layerMetrics(rep, b, lt, hostSteal(host0, readHostCPU()))
	} else {
		part := func(f func(setupTimes) time.Duration) float64 {
			v := make([]float64, len(setups))
			for i, st := range setups {
				v[i] = f(st).Seconds()
			}
			return median(v)
		}
		rep.add("setup_s", part(setupTimes.timed), "s")
		fmt.Fprintf(out, "%-36s %14.4f s\n", "setup.spawn_s", part(func(st setupTimes) time.Duration { return st.spawn }))
		fmt.Fprintf(out, "%-36s %14.4f s\n", "setup.streams_s", part(func(st setupTimes) time.Duration { return st.streams }))
		fmt.Fprintf(out, "%-36s %14.4f s\n", "setup.warm_s", part(func(st setupTimes) time.Duration { return st.warm }))
		ref := b.targets[0]
		for _, t := range b.targets[1:] {
			rep.add(t.name+".p50_rel", relative(t, ref, func(s roundStat) float64 { return s.p50us }), "x")
			rep.add(t.name+".rps_rel", relative(t, ref, func(s roundStat) float64 { return s.rps }), "x")
			rep.add(t.name+".cpu_rel", relative(t, ref, func(s roundStat) float64 { return s.cpuPerReq }), "x")
		}
		cpu, busy := clientLoad(b)
		fmt.Fprintf(out, "%-36s %14.4f %s\n", "client.cpu_us_per_req", cpu, "us")
		fmt.Fprintf(out, "%-36s %14.4f %s\n", "client.busy_frac", busy, "share")
		fmt.Fprintf(out, "%-36s %14.4f %s\n", "host.steal_frac", hostSteal(host0, readHostCPU()), "share")
	}
	fmt.Fprintf(out, "%-36s %14.4f %s\n", "fail_frac", failFrac, "share")
	for _, f := range b.failures {
		fmt.Fprintln(out, "failure:", f)
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: rep.metrics}
	if b.attempted == 0 {
		return nil, errors.New("no request attempted")
	}
	return res, nil
}

// estimate is the median of f over the rounds.
func estimate(rs []roundStat, f func(roundStat) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

// relative is the median over rounds of f of t as a multiple of f of
// the reference server in the same round.
func relative(t, ref *target, f func(roundStat) float64) float64 {
	v := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		v[i] = f(r) / f(ref.rounds[i])
	}
	return median(v)
}

// runRecord describes the host: CPUs, CPU model and kernel.
func runRecord() string {
	return fmt.Sprintf("nproc=%d cpu=%q kernel=%s", runtime.NumCPU(), cpuModel(), strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")))
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func readSysctl(name string) string { return strings.TrimSpace(readFile("/proc/sys/" + name)) }

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostCPU is the aggregate line of /proc/stat: total and steal ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	line, _, _ := strings.Cut(readFile("/proc/stat"), "\n")
	var h hostCPU
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return h
	}
	for i, f := range fields[1:9] { // user..steal; guest time is already in user
		var v int64
		fmt.Sscan(f, &v)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

func hostSteal(a, b hostCPU) float64 {
	if b.total == a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func sortedKeys(m map[string]metric) []string {
	k := make([]string, 0, len(m))
	for n := range m {
		k = append(k, n)
	}
	sort.Strings(k)
	return k
}
