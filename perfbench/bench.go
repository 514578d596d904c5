package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/docroot"
	"repro/internal/surge"
)

// The object population is fixed; only the request stream follows the
// workload seed.
const (
	popObjects  = 2000
	popSeed     = 7
	contentSeed = popSeed + 1 // the blob seed servers derive from the population seed, as cmd/nioserver does
	cacheBytes  = 4 << 20     // below pipeline's working set (~20 MB of distinct objects per 8k requests)
	streamLen   = 1 << 17     // requests per worker stream
	roundStep   = 1 << 13     // stream offset between rounds: more than one round's requests per worker
	roundLen    = 250 * time.Millisecond
	warmReqs    = 256              // warm-up requests per worker and target
	warmCap     = 10 * time.Second // ends a warm-up that a stalled server would hold
	setupReps   = 7
	unlimited   = math.MaxInt
)

// workload is one traffic mix. All are closed loop.
type workload struct {
	name    string
	depth   int  // requests in flight per connection
	conns   int  // connections (keep-alive) or workers (fresh)
	fresh   bool // one connection per request, Connection: close
	docroot bool // serve from an on-disk docroot instead of memory
	// minSize..maxSize restricts the objects requested, drawn uniformly;
	// zero maxSize draws by SURGE (Zipf) popularity from all objects.
	minSize, maxSize int64
}

func workloadByName(name string) (workload, error) {
	// The saturating workloads leave one CPU to the server under test:
	// generator threads plus the server's one busy thread never exceed
	// nproc.
	n := runtime.NumCPU() - 1
	if n < 1 {
		n = 1
	}
	switch name {
	case "pingpong":
		return workload{name: name, depth: 1, conns: 1, minSize: 768, maxSize: 1280}, nil
	case "pipeline":
		return workload{name: name, depth: 16, conns: n, docroot: true}, nil
	case "churn":
		return workload{name: name, depth: 1, conns: n, fresh: true, minSize: 64, maxSize: 2048}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (pingpong | pipeline | churn)", name)
}

// streams draws one request stream per worker from the workload seed.
func (w workload) streams(set *surge.ObjectSet, seed uint64) ([][]int32, error) {
	rng := dist.NewRNG(seed)
	var band []int32
	if w.maxSize > 0 {
		for i := 0; i < set.Len(); i++ {
			if sz := set.Object(i).Size; sz >= w.minSize && sz <= w.maxSize {
				band = append(band, int32(i))
			}
		}
		if len(band) == 0 {
			return nil, fmt.Errorf("%s: no objects of %d..%d bytes", w.name, w.minSize, w.maxSize)
		}
	}
	out := make([][]int32, w.conns)
	for c := range out {
		s := make([]int32, streamLen)
		for i := range s {
			if band != nil {
				s[i] = band[rng.Intn(len(band))]
			} else {
				s[i] = int32(set.Pick(rng).ID)
			}
		}
		out[c] = s
	}
	return out, nil
}

// requests pre-builds every object's request bytes.
func (w workload) requests(n int) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		if w.fresh {
			reqs[i] = []byte(fmt.Sprintf("GET /obj/%d HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n", i))
		} else {
			reqs[i] = []byte(fmt.Sprintf("GET /obj/%d HTTP/1.1\r\nHost: bench\r\n\r\n", i))
		}
	}
	return reqs
}

// target is one server arrangement under load.
type target struct {
	name    string
	front   *child   // the process the generator connects to
	procs   []*child // every server process whose CPU is charged
	workers []roundWorker
	// validated counts every validated reply over the target's life,
	// warm-up included, for the final check against the server's
	// own Replies.
	validated int64
	rounds    []roundStat
	lat       []float64 // every latency sample of the measured rounds
}

type roundStat struct {
	p50us, rps, cpuPerReq float64
	ok                    int64
	elapsed               time.Duration
	cpuUs                 int64
	clientCPUus           int64
	procMallocs           map[string]uint64 // by process kind
	procCtxsw             map[string]int64
}

// ledger counts requests and failures over every set-up of a run, so a
// failure during a set-up that is then torn down still fails the run.
type ledger struct {
	attempted, failed int64
	failures          []error
}

// bench is one set-up of every target on one workload.
type bench struct {
	*ledger
	w        workload
	seed     uint64
	workdir  string
	traced   bool // also run Config.Obs copies of every target
	set      *surge.ObjectSet
	content  *content
	dir      string  // the docroot the servers serve, if the workload has one
	stream0  []int32 // the first worker's request stream
	targets  []*target
	children []*child
}

func newBench(w workload, seed uint64, workdir string, traced bool, led *ledger) (*bench, error) {
	set, scfg, err := buildPopulation()
	if err != nil {
		return nil, err
	}
	sizes := make([]int64, set.Len())
	for i := range sizes {
		sizes[i] = set.Object(i).Size
	}
	return &bench{ledger: led, w: w, seed: seed, workdir: workdir, traced: traced, set: set,
		content: &content{sizes: sizes, blob: docroot.SurgeBlob(scfg.MaxObjectBytes, contentSeed)}}, nil
}

// materialize writes the population's objects under workdir as a
// docroot and returns its directory.
func materialize(workdir string) (string, error) {
	set, scfg, err := buildPopulation()
	if err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(workdir, "docroot-")
	if err != nil {
		return "", err
	}
	return dir, docroot.MaterializeSurge(dir, set, scfg.MaxObjectBytes, contentSeed)
}

// setupTimes is the wall time of each part of one set-up.
type setupTimes struct{ spawn, streams, warm time.Duration }

// timed is the part of a set-up that setup_s reports. The warm-up is left
// out: it is request work whose raw time follows the host's drift, and
// its cost per request is already gated through the relative metrics.
func (s setupTimes) timed() time.Duration { return s.spawn + s.streams }

// setup spawns the servers and waits until each is ready, builds the
// request streams and warms every target with a fixed number of
// requests.
func (b *bench) setup() (st setupTimes, err error) {
	start := time.Now()
	ref, err := b.spawn("ref", "", false)
	if err != nil {
		return st, err
	}
	b.targets = append(b.targets, &target{name: "ref", front: ref, procs: []*child{ref}})
	kinds := []bool{false}
	if b.traced {
		kinds = append(kinds, true)
	}
	for _, traced := range kinds {
		suffix := ""
		if traced {
			suffix = "+obs"
		}
		for _, name := range []string{"nio", "mt", "tier"} {
			t := &target{name: name + suffix}
			switch name {
			case "nio", "mt":
				c, err := b.spawn(name, "", traced)
				if err != nil {
					return st, err
				}
				t.front, t.procs = c, []*child{c}
			case "tier":
				be, err := b.spawn("nio", "", traced)
				if err != nil {
					return st, err
				}
				px, err := b.spawn("proxy", be.addr, traced)
				if err != nil {
					return st, err
				}
				t.front, t.procs = px, []*child{px, be}
			}
			b.targets = append(b.targets, t)
		}
	}
	st.spawn = time.Since(start)
	start = time.Now()
	streams, err := b.w.streams(b.set, b.seed)
	if err != nil {
		return st, err
	}
	b.stream0 = streams[0]
	reqs := b.w.requests(b.set.Len())
	for _, t := range b.targets {
		d, err := newDialer(t.front.addr)
		if err != nil {
			return st, err
		}
		for _, s := range streams {
			if b.w.fresh {
				t.workers = append(t.workers, &fresh{d: d, reqs: reqs, stream: s,
					rd: respReader{c: b.content}, buf: make([]byte, 16<<10)})
			} else {
				t.workers = append(t.workers, newKeepAlive(d, b.content, reqs, s, b.w.depth))
			}
		}
	}
	st.streams = time.Since(start)
	start = time.Now()
	for _, t := range b.targets {
		tal, err := runWorkers(t.workers, 0, warmReqs, start.Add(warmCap))
		if err != nil {
			return st, err
		}
		b.account(t, tal)
	}
	st.warm = time.Since(start)
	return st, nil
}

func (b *bench) spawn(kind, backend string, traced bool) (*child, error) {
	c, err := spawn(kind, b.dir, backend, traced)
	if err != nil {
		return nil, err
	}
	b.children = append(b.children, c)
	return c, nil
}

// account adds one round's requests to the ledger and to t's count of
// validated replies.
func (b *bench) account(t *target, tal tally) {
	b.attempted += tal.attempted
	b.failed += tal.attempted - tal.ok
	for _, e := range tal.errs {
		b.failures = append(b.failures, fmt.Errorf("%s: %w", t.name, e))
	}
	t.validated += tal.ok
}

// measure runs one round against t and keeps its figures. Server CPU is
// read from each process before and after, outside the timed window.
func (b *bench) measure(t *target, round int, length time.Duration) error {
	var st roundStat
	before := make([]snapshot, len(t.procs))
	for i, c := range t.procs {
		sn, err := c.snap()
		if err != nil {
			return err
		}
		before[i] = sn
	}
	cpu0 := selfCPU()
	start := time.Now()
	tal, err := runWorkers(t.workers, round*roundStep, unlimited, start.Add(length))
	st.elapsed = time.Since(start)
	st.clientCPUus = selfCPU() - cpu0
	if err != nil {
		return err
	}
	b.account(t, tal)
	st.procMallocs, st.procCtxsw = map[string]uint64{}, map[string]int64{}
	for i, c := range t.procs {
		sn, err := c.snap()
		if err != nil {
			return err
		}
		st.cpuUs += sn.CPUMicros - before[i].CPUMicros
		st.procCtxsw[c.kind] = sn.Ctxsw - before[i].Ctxsw
		st.procMallocs[c.kind] = sn.Mallocs - before[i].Mallocs
	}
	st.ok = tal.ok
	if tal.ok == 0 {
		return fmt.Errorf("%s: no reply validated in a %v round", t.name, length)
	}
	st.p50us = median(tal.latUs)
	st.rps = float64(tal.ok) / st.elapsed.Seconds()
	st.cpuPerReq = float64(st.cpuUs) / float64(tal.ok)
	t.rounds = append(t.rounds, st)
	t.lat = append(t.lat, tal.latUs...)
	return nil
}

// run measures every target in alternating rounds for about total, so a
// slow stretch of the host hits each target alike.
func (b *bench) run(total time.Duration) error {
	n := int(total / (roundLen * time.Duration(len(b.targets))))
	if n < 3 {
		n = 3
	}
	for r := 1; r <= n; r++ {
		for _, t := range b.targets {
			if err := b.measure(t, r, roundLen); err != nil {
				return err
			}
		}
	}
	return nil
}

// teardown stops every server and checks that each one's own Replies
// counter equals the replies the generator validated from it.
func (b *bench) teardown() ([]snapshot, error) {
	for _, t := range b.targets {
		for _, w := range t.workers {
			if k, ok := w.(*keepAlive); ok {
				k.close()
			}
		}
	}
	final := map[*child]snapshot{}
	var errs []error
	for _, c := range b.children {
		sn, err := c.stop()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		final[c] = sn
	}
	b.children = nil
	var snaps []snapshot
	for _, t := range b.targets {
		for _, c := range t.procs {
			sn, ok := final[c]
			if !ok {
				continue
			}
			snaps = append(snaps, sn)
			if b.failed == 0 && sn.Replies != t.validated+c.direct {
				errs = append(errs, fmt.Errorf("%s: %s process counted %d replies, generator validated %d and layer drivers %d",
					t.name, c.kind, sn.Replies, t.validated, c.direct))
			}
		}
	}
	return snaps, errors.Join(errs...)
}

// abort kills every child without a drain (error paths).
func (b *bench) abort() {
	for _, c := range b.children {
		c.kill()
	}
	b.children = nil
}

func selfCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tvMicros(ru.Utime) + tvMicros(ru.Stime)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile sorts a copy of v and interpolates linearly.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func workdirFor(base string) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
