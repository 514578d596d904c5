//go:build linux

package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/docroot"
	"repro/internal/httpwire"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/reactor"
	"repro/internal/sysfault"
)

// Config parameterizes the event-driven server.
type Config struct {
	// Port to listen on (0 picks a free port; see Server.Port).
	Port int
	// Shards is the number of reactor event loops, at least 1. Each
	// has its own epoll instance, wakeup pipe, timer wheel, connection
	// table, and deterministic fault lane, and accepts directly from the
	// shared port via SO_REUSEPORT, so the kernel hashes incoming
	// connections across the shards with no shared accept lock.
	Shards int
	// AcceptFanout runs the paper's 1 acceptor + N workers topology
	// instead: each shard still runs its own loop, wheel, and fault
	// lane, but accepted fds arrive over a lock-free SPSC ring from one
	// acceptor thread instead of a per-shard listener. This is also the
	// automatic fallback when the kernel rejects SO_REUSEPORT.
	AcceptFanout bool
	// Backlog is the listen(2) backlog.
	Backlog int
	// ReadBuf is the per-read buffer size.
	ReadBuf int
	// Store serves the content from memory. Required unless Docroot is
	// set.
	Store Store
	// Docroot, when non-nil, serves real files from disk through the
	// bounded content cache instead of Store: cache hits are written
	// from memory, misses are delivered zero-copy with non-blocking
	// sendfile(2) from the reactor loop, and conditional GETs
	// (If-None-Match / If-Modified-Since) are answered with 304.
	Docroot *docroot.Root
	// IdleTimeout, when positive, disconnects connections with no
	// activity for this long — the policy a thread-pool server is
	// *forced* to adopt to recycle threads. The event-driven
	// architecture does not need it (a paper headline), so the default
	// is 0 = never; the knob exists for the live ablation that shows
	// the reset errors appear with the policy, not the architecture.
	IdleTimeout time.Duration
	// HeaderTimeout, when positive, bounds how long a connection may
	// take to deliver a complete request once one has begun (and how
	// long a fresh connection may take to send its first). Distinct
	// from IdleTimeout: an idle keep-alive connection between requests
	// is free to linger, but a peer that dribbles header bytes — a
	// slowloris — is reset when the clock runs out, so it cannot pin
	// parser buffers forever. 0 disables the guard.
	HeaderTimeout time.Duration
	// MaxConns, when positive, caps concurrently open connections:
	// excess accepts are answered with an immediate 503 and closed
	// (counted in Stats.Shed) instead of queuing without bound — the
	// *hard ceiling* for the connection-flood regime. 0 = unlimited.
	// The cap is global across shards (enforced with a CAS, so N
	// accepting shards cannot race past it together).
	MaxConns int
	// Admission, when non-nil, is the adaptive overload controller: it
	// is consulted on every accept (before the MaxConns ceiling), and
	// fed the accept-to-first-response latency of each admitted
	// connection so its AIMD loop can hold the configured p95 target.
	// Refused connections are shed with 503 + Retry-After + close.
	Admission *overload.Controller
	// Watchdog, when non-nil, monitors the acceptor and every reactor
	// shard for wedged loops: each thread registers a heartbeat at
	// Start and brackets its work with Begin/End, so a handler that
	// hangs the loop is flagged within roughly one watchdog interval.
	// The watchdog is caller-owned (it may be shared across servers)
	// and is not stopped by Stop.
	Watchdog *overload.Watchdog
	// HandlerFault, when non-nil, injects faults into request handling
	// (see Fault) — the hook the robustness tests drive panics and
	// wedges through. nil in production.
	HandlerFault FaultFunc
	// Obs, when non-nil, is the live observability plane: every
	// connection's lifecycle (accept, queue-wait, parse, handler,
	// first-byte, write, close/shed/panic) is traced into its ring and
	// the four phase latencies feed its histograms, all read live by the
	// admin endpoint. Each shard records into its own per-shard phase
	// block (obs.Plane.View) so the hot path stays uncontended; the
	// admin read side merges the blocks bucketwise. Every recording
	// site is behind a nil check, so a nil Obs costs nothing.
	Obs *obs.Plane
}

// DefaultConfig returns the paper's best uniprocessor configuration:
// one event loop on one reuseport listener.
func DefaultConfig(store Store) Config {
	return Config{
		Shards:  1,
		Backlog: 1024,
		ReadBuf: 16 << 10,
		Store:   store,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Shards < 1:
		return fmt.Errorf("core: Shards must be positive, got %d", c.Shards)
	case c.Shards > sysfault.MaxLanes:
		return fmt.Errorf("core: Shards %d exceeds the %d supported fault lanes", c.Shards, sysfault.MaxLanes)
	case c.Backlog <= 0:
		return fmt.Errorf("core: Backlog must be positive, got %d", c.Backlog)
	case c.ReadBuf < 256:
		return fmt.Errorf("core: ReadBuf must be at least 256, got %d", c.ReadBuf)
	case c.Store == nil && c.Docroot == nil:
		return fmt.Errorf("core: a Store or a Docroot is required")
	case c.Port < 0 || c.Port > 65535:
		return fmt.Errorf("core: invalid port %d", c.Port)
	case c.IdleTimeout < 0:
		return fmt.Errorf("core: negative IdleTimeout %v", c.IdleTimeout)
	case c.HeaderTimeout < 0:
		return fmt.Errorf("core: negative HeaderTimeout %v", c.HeaderTimeout)
	case c.MaxConns < 0:
		return fmt.Errorf("core: negative MaxConns %d", c.MaxConns)
	}
	return nil
}

// Stats are the server's counters (all atomic; safe to read live).
type Stats struct {
	Accepted   int64
	Replies    int64
	BytesOut   int64
	NotFound   int64
	BadRequest int64
	ConnsOpen  int64
	IdleCloses int64
	// Shed counts connections refused with a 503 by MaxConns admission
	// control.
	Shed int64
	// HeaderTimeouts counts connections reset for failing to deliver a
	// complete request within HeaderTimeout (slowloris defense).
	HeaderTimeouts int64
	// NotModified counts 304 replies to conditional GETs (docroot only).
	NotModified int64
	// SendfileBytes counts body bytes delivered zero-copy via
	// sendfile(2); BytesOut includes them.
	SendfileBytes int64
	// HandlerPanics counts handler panics that were isolated to their
	// connection (best-effort 500 + close) instead of killing the
	// process.
	HandlerPanics int64
	// AcceptEMFILE counts accept attempts refused by the kernel for
	// descriptor exhaustion (EMFILE/ENFILE) and absorbed by the
	// reserve-descriptor recovery instead of killing the acceptor.
	AcceptEMFILE int64
	// AcceptBackoffs counts backoff waits taken by the accept gate
	// after resource-exhausted accepts (instead of hot-spinning on a
	// level-triggered listener that stays readable).
	AcceptBackoffs int64
	// WriteStalls counts ENOBUFS write failures absorbed by re-arming
	// write interest instead of tearing the connection down.
	WriteStalls int64
	// WriteResets counts connections torn down by a peer reset or
	// broken pipe mid-response (distinct from generic write errors).
	WriteResets int64
	// SendfileFallbacks counts sendfile(2) failures recovered by
	// switching the in-flight response to buffered delivery from the
	// same resume offset — the response bytes stay correct.
	SendfileFallbacks int64
}

// statBlock is one shard's set of server counters: each shard has its
// own block, so the hot path never bounces a shared cache line between
// loops (the fan-out acceptor counts its rare sheds into shard 0's).
// The accept-side counters live in each reactor.Acceptor. Server.Stats
// sums the blocks and the acceptors — plain addition, so the merged
// view is exact, not sampled.
type statBlock struct {
	replies           counter
	bytesOut          counter
	notFound          counter
	badRequest        counter
	idleCloses        counter
	shed              counter
	headerTimeouts    counter
	notModified       counter
	sendfileBytes     counter
	handlerPanics     counter
	writeStalls       counter
	writeResets       counter
	sendfileFallbacks counter
}

// addInto accumulates this block into st. ConnsOpen is not a block
// field: it is the one genuinely global gauge (the MaxConns ceiling is
// global), kept on the Server.
func (b *statBlock) addInto(st *Stats) {
	st.Replies += b.replies.get()
	st.BytesOut += b.bytesOut.get()
	st.NotFound += b.notFound.get()
	st.BadRequest += b.badRequest.get()
	st.IdleCloses += b.idleCloses.get()
	st.Shed += b.shed.get()
	st.HeaderTimeouts += b.headerTimeouts.get()
	st.NotModified += b.notModified.get()
	st.SendfileBytes += b.sendfileBytes.get()
	st.HandlerPanics += b.handlerPanics.get()
	st.WriteStalls += b.writeStalls.get()
	st.WriteResets += b.writeResets.get()
	st.SendfileFallbacks += b.sendfileFallbacks.get()
}

// addAcceptInto accumulates an acceptor's counters into st (a nil
// acceptor, e.g. a fan-out shard's, adds nothing).
func addAcceptInto(st *Stats, a *reactor.Acceptor) {
	if a == nil {
		return
	}
	c := a.Counts()
	st.Accepted += c.Accepted
	st.AcceptEMFILE += c.EMFILE
	st.AcceptBackoffs += c.Backoffs
}

// Server is the live event-driven web server.
type Server struct {
	cfg  Config
	port int
	// lfd is the shared listener under fan-out until Start hands it to
	// the acceptor; -1 in reuseport mode, where each shard owns its own
	// listening socket instead.
	lfd int
	// shardLfds holds the per-shard SO_REUSEPORT listeners between
	// NewServer and Start (Start hands each to its shard's acceptor and
	// clears the slot; a Stop before Start closes what is left).
	shardLfds []int
	// fanout records the accept topology actually in effect: true for
	// the single-acceptor path (forced AcceptFanout, or SO_REUSEPORT
	// unavailable).
	fanout  bool
	started bool

	shards []*shard
	// acceptor is the fan-out acceptor thread's poller and acc its
	// accept pipeline (both nil in reuseport mode); rr is its
	// round-robin cursor over the shards.
	acceptor  *reactor.Poller
	acc       *reactor.Acceptor
	rr        int
	wg        sync.WaitGroup
	stopping  chan struct{}
	stopOnce  sync.Once
	draining  chan struct{}
	drainOnce sync.Once

	// connsOpen is the global open-connection gauge; tryAcquireConn
	// CASes against it so the MaxConns ceiling holds exactly even with
	// N shards accepting concurrently.
	connsOpen counter
}

// counter is a tiny atomic counter (avoids importing metrics here).
type counter struct{ v atomic.Int64 }

func (c *counter) add(d int64)             { c.v.Add(d) }
func (c *counter) get() int64              { return c.v.Load() }
func (c *counter) cas(old, new int64) bool { return c.v.CompareAndSwap(old, new) }

// NewServer validates the configuration and binds the listener(s);
// call Start to begin serving. In sharded mode every per-shard
// SO_REUSEPORT listener is bound here, up front, so a port conflict or
// an unsupported kernel surfaces before any thread starts; the kernel
// begins hashing connections across the listeners the moment the first
// shard loop runs.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		lfd:      -1,
		stopping: make(chan struct{}),
		draining: make(chan struct{}),
	}
	fanout := cfg.AcceptFanout
	if !fanout {
		port := cfg.Port
		for i := 0; i < cfg.Shards; i++ {
			lfd, p, err := reactor.ListenReusePort(port, cfg.Backlog)
			if err != nil {
				for _, fd := range s.shardLfds {
					reactor.CloseFD(0, fd)
				}
				s.shardLfds = nil
				if i == 0 {
					// SO_REUSEPORT itself may be what failed (old
					// kernel); the fan-out path needs no such support,
					// so fall back rather than refuse to serve. A
					// plain bind conflict fails again below and is
					// reported from there.
					fanout = true
					break
				}
				return nil, err
			}
			port = p
			s.shardLfds = append(s.shardLfds, lfd)
		}
		if !fanout {
			s.port = port
		}
	}
	if fanout {
		lfd, port, err := reactor.Listen(cfg.Port, cfg.Backlog)
		if err != nil {
			return nil, err
		}
		s.lfd = lfd
		s.port = port
	}
	s.fanout = fanout
	return s, nil
}

// Port returns the bound port.
func (s *Server) Port() int { return s.port }

// Addr returns the listen address.
func (s *Server) Addr() string { return fmt.Sprintf("127.0.0.1:%d", s.port) }

// NumShards returns the number of event loops this server runs.
func (s *Server) NumShards() int { return s.cfg.Shards }

// AcceptMode reports how connections reach the shards: "reuseport"
// (kernel accept sharding, each shard accepts from its own listener)
// or "fanout" (one acceptor thread distributing over SPSC rings).
func (s *Server) AcceptMode() string {
	if s.fanout {
		return "fanout"
	}
	return "reuseport"
}

// Stats returns a snapshot of the counters, summed across the accept
// side and every shard. Each addend is an atomic counter and the
// blocks are merged by plain addition, so the snapshot is exact up to
// the usual torn-read-across-counters caveat any live scrape has.
func (s *Server) Stats() Stats {
	var st Stats
	addAcceptInto(&st, s.acc)
	for _, w := range s.shards {
		w.stats.addInto(&st)
		addAcceptInto(&st, w.acc)
	}
	st.ConnsOpen = s.connsOpen.get()
	return st
}

// ShardStats returns shard i's own counters. ConnsOpen is a global
// gauge and reported as 0 here; read it from Stats. Valid after Start.
func (s *Server) ShardStats(i int) Stats {
	var st Stats
	s.shards[i].stats.addInto(&st)
	addAcceptInto(&st, s.shards[i].acc)
	return st
}

// tryAcquireConn claims one connsOpen slot under the MaxConns ceiling,
// reporting false when the server is full. With MaxConns unset it is a
// plain increment; with a ceiling it is a CAS loop, so concurrent
// accepting shards cannot overshoot the cap together.
func (s *Server) tryAcquireConn() bool {
	mc := s.cfg.MaxConns
	if mc <= 0 {
		s.connsOpen.add(1)
		return true
	}
	for {
		cur := s.connsOpen.get()
		if cur >= int64(mc) {
			return false
		}
		if s.connsOpen.cas(cur, cur+1) {
			return true
		}
	}
}

// shedRetryAfterSec is the Retry-After advertised on sheds not governed
// by an admission controller (the static MaxConns ceiling).
const shedRetryAfterSec = 1

// docrootPressureEvictions is how many cached entries (and so shared
// file descriptors) the accepting thread asks the docroot to give back
// per EMFILE event — enough to make real room, small enough not to
// dump a warm cache over one transient spike.
const docrootPressureEvictions = 8

// newAcceptor puts listener lfd on poller p behind the shared accept
// pipeline: admission, then the global MaxConns ceiling, then adopt.
// Sheds are counted and traced by shard w. Under EMFILE a docroot,
// when configured, is asked to shed a few cache entries first: cached
// content pins file descriptors, so giving those back attacks the
// exhaustion itself rather than just the symptom.
func (s *Server) newAcceptor(lfd int, p *reactor.Poller, w *shard, adopt func(int, time.Time)) (*reactor.Acceptor, error) {
	cfg := reactor.AcceptConfig{
		Listener:      lfd,
		Poller:        p,
		Admission:     s.cfg.Admission,
		RetryAfterSec: shedRetryAfterSec,
		Acquire:       s.tryAcquireConn,
		Adopt:         adopt,
		OnShed:        w.recordShed,
	}
	if dr := s.cfg.Docroot; dr != nil {
		cfg.OnFDPressure = func() { dr.ShedFDs(docrootPressureEvictions) }
	}
	return reactor.NewAcceptor(cfg)
}

// Start launches the shard threads (and, under fan-out, the acceptor).
func (s *Server) Start() error {
	fail := func(err error) error {
		for _, w := range s.shards {
			if w.acc != nil {
				w.acc.Close()
			}
			w.poller.Close()
		}
		s.shards = nil
		return err
	}
	for i := 0; i < s.cfg.Shards; i++ {
		w, err := newShard(s, i)
		if err != nil {
			return fail(err)
		}
		s.shards = append(s.shards, w)
	}
	if s.fanout {
		ap, err := reactor.NewPoller(64)
		if err != nil {
			return fail(err)
		}
		acc, err := s.newAcceptor(s.lfd, ap, s.shards[0], s.handoff)
		if err != nil {
			ap.Close()
			return fail(err)
		}
		s.lfd = -1 // the acceptor owns it now
		s.acceptor, s.acc = ap, acc
	}
	s.started = true
	// Date-header ticker: one refresh per second, server-wide.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stopping:
				return
			case now := <-t.C:
				httpwire.RefreshDate(now)
			}
		}
	}()
	for _, w := range s.shards {
		s.wg.Add(1)
		go w.loop()
	}
	if s.fanout {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	return nil
}

// Stop shuts the server down and waits for all threads to exit. Safe to
// call before Start: the bound listeners are closed so the fds do not
// leak, and nothing is waited on.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopping)
		if !s.started {
			// Never (fully) started: no acceptor owns these listeners
			// yet, so they must be closed here or they leak.
			if s.lfd >= 0 {
				reactor.CloseFD(0, s.lfd)
				s.lfd = -1
			}
			for _, fd := range s.shardLfds {
				if fd >= 0 {
					reactor.CloseFD(0, fd)
				}
			}
			s.shardLfds = nil
			return
		}
		s.wakeAll()
	})
	s.wg.Wait()
}

// wakeAll interrupts every loop's poller wait so it sees a stop or
// drain.
func (s *Server) wakeAll() {
	if s.acceptor != nil {
		s.acceptor.Wakeup()
	}
	for _, w := range s.shards {
		w.poller.Wakeup()
	}
}

// Drain gracefully shuts the server down: it stops accepting, closes
// idle connections immediately, lets every in-flight response finish
// flushing (up to timeout), and then stops. It reports whether all
// connections drained before the deadline; on false, the stragglers were
// cut off by Stop. During the drain no new requests are read — pending
// output is the only work left.
func (s *Server) Drain(timeout time.Duration) bool {
	s.drainOnce.Do(func() {
		close(s.draining)
		if s.started {
			s.wakeAll()
		}
	})
	drained := false
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.connsOpen.get() == 0 {
			drained = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
	return drained
}

// acceptLoop is the fan-out acceptor thread: it runs the shared accept
// pipeline on its own poller and hands admitted fds to shards
// round-robin over their SPSC rings — the same split the paper's nio
// server uses (one acceptor + N workers). While the accept gate is
// closed it parks in the poller with the gate's timeout, so Stop and
// Drain still wake it at once. All its syscalls run on fault lane 0.
//
//nio:loop
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	defer s.acceptor.Close()
	defer s.acc.Close()
	// The loop blocks in raw epoll_wait, which parks an OS thread; pin
	// the goroutine so it owns that thread outright (a reactor thread in
	// the paper's sense) instead of bouncing through scheduler handoffs.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var hb *overload.Heartbeat
	if wd := s.cfg.Watchdog; wd != nil {
		hb = wd.Register("core-acceptor")
	}
	for {
		select {
		case <-s.stopping:
			return
		case <-s.draining:
			return // drain: stop accepting; shards finish in-flight work
		default:
		}
		ms, ok := s.acc.Arm(time.Now(), -1)
		if !ok {
			return
		}
		evs, err := s.acceptor.Wait(ms)
		if err != nil {
			return
		}
		if hb != nil {
			hb.Begin()
		}
		alive := true
		for _, ev := range evs {
			if ev.FD == s.acc.FD() {
				alive = s.acc.Ready(time.Now())
			}
		}
		if hb != nil {
			hb.End()
		}
		if !alive {
			return // listener closed
		}
	}
}

// handoff is the fan-out acceptor's adopt hook: it transfers an
// admitted fd to the next shard round-robin over its SPSC ring and
// wakes the shard (Selector.wakeup semantics). The fd already holds a
// connsOpen slot, so a full ring gives the slot back.
func (s *Server) handoff(fd int, at time.Time) {
	w := s.shards[s.rr%len(s.shards)]
	s.rr++
	if !w.ring.push(pendingConn{fd: fd, at: at}) {
		// Ring overflow: shed the connection rather than block the
		// acceptor; this mirrors a full pending-registration queue.
		reactor.CloseFD(0, fd)
		s.connsOpen.add(-1)
		return
	}
	w.poller.Wakeup()
}

// outSeg is one element of a connection's pending output: either a byte
// slice (headers, in-memory bodies) or a file range delivered zero-copy
// with sendfile(2). A file segment pins its docroot entry — and so the
// shared fd — until the range is fully sent or the connection dies.
type outSeg struct {
	buf []byte
	// ent is non-nil for a sendfile segment; off is the next unsent
	// file offset (advanced by the kernel on every call, so it is always
	// the resume point after a partial write) and end is one past the
	// last byte.
	ent *docroot.Entry
	off int64
	end int64
	// fallback flips a file segment from sendfile(2) to buffered
	// delivery after the kernel refuses the fast path (EINVAL/EIO):
	// each pass re-reads the file at off and writes it, so the
	// response bytes stay exact across the switch and across partial
	// writes. off/end keep their meaning; sendfile is never retried on
	// this segment.
	fallback bool
}

// conn is the per-connection state owned by exactly one shard.
//
//nio:loop-owned
type conn struct {
	fd     int
	parser httpwire.Parser
	// out is the pending response segment queue: each segment is written
	// non-blockingly; when the socket fills we keep the position and
	// wait for writability.
	out      []outSeg
	outOff   int  // sent bytes of the head segment's buf
	writeArm bool // EPOLLOUT currently requested
	closing  bool // close once out drains (400 or Connection: close)
	closed   bool // torn down; output must never be queued again
	// wheeled marks the connection as filed in its shard's timer wheel
	// (at most one entry per connection; see wheel.go).
	wheeled bool
	replies int64
	// lastActive is when the connection last made progress; the idle
	// policy (only armed when Config.IdleTimeout > 0) compares it.
	lastActive time.Time
	// acceptedAt is when the connection was accepted; observed flips
	// once the accept-to-first-response latency has been reported to
	// the admission controller (once per connection).
	acceptedAt time.Time
	observed   bool
	// headerStart, when non-zero, is when the connection started owing
	// us a complete request: set at accept and whenever a partial
	// request is buffered, cleared once a request completes and nothing
	// partial remains. The header policy (armed when
	// Config.HeaderTimeout > 0) resets connections that exceed it.
	headerStart time.Time
	// Observability-plane state, only maintained when Config.Obs is set:
	// the plane-assigned connection id, the first-byte-of-request and
	// handler-start stamps the phase clocks run from, the serve-complete
	// stamp the write phase closes against, and whether the first
	// response byte has been traced.
	obsID        uint64
	reqStart     time.Time
	handlerStart time.Time
	serveDone    time.Time
	firstByte    bool
}

// shard is one reactor event loop: its own poller (epoll fd + wakeup
// pipe), its own connection table, timer wheel, scratch buffers,
// counters, observability view, and deterministic fault lane. In
// reuseport mode it also runs an acceptor on its own listening socket;
// under fan-out it receives accepted fds over its SPSC ring.
type shard struct {
	srv    *Server
	idx    int
	lane   sysfault.Lane
	poller *reactor.Poller
	// stats is this shard's counter block (merged by Server.Stats).
	stats *statBlock
	// obs is this shard's observability view: trace ring and kind
	// counts are shared (lock-free), phase histograms are per-shard
	// blocks merged at read time. nil when Config.Obs is nil.
	obs *obs.View
	// acc accepts from this shard's own SO_REUSEPORT listener (nil
	// under fan-out). A dead listener is closed inside it; the shard
	// keeps serving its connections and its siblings keep accepting.
	acc *reactor.Acceptor
	// ring is the SPSC handoff from the acceptor (fan-out mode; nil in
	// reuseport mode).
	ring *spscRing
	// conns is this loop's connection table — the state reactor
	// sharding partitions, so it must never be touched off-loop.
	//nio:loop-owned
	conns map[int]*conn
	//nio:loop-owned
	buf []byte
	// fbuf is the lazily-allocated scratch for buffered sendfile
	// fallback (never aliased by the parser, unlike buf).
	//nio:loop-owned
	fbuf []byte
	//nio:loop-owned
	reqs []*httpwire.Request
	// draining is set once the server enters Drain: no new reads, flush
	// pending output, close as connections empty.
	//nio:loop-owned
	draining bool
	// hb is this reactor thread's watchdog heartbeat (nil when no
	// watchdog is configured). Spans bracket work, not the poller wait,
	// so a parked-but-healthy loop is never flagged.
	hb *overload.Heartbeat
	// loopTicks counts event-loop iterations so the invariant build can
	// amortize its O(conns) interest-set audit instead of paying it on
	// every pass through the hot loop.
	//nio:loop-owned
	loopTicks uint64
	// wheel is this shard's timer wheel (nil when neither timeout knob
	// is configured).
	//nio:loop-owned
	wheel *timerWheel
}

func newShard(s *Server, idx int) (*shard, error) {
	// Shard i draws fault decisions from lane i: independent
	// deterministic streams per loop, with shard 0 on the legacy stream
	// so a single-shard server replays byte-identically to the
	// pre-sharding server.
	lane := sysfault.Lane(idx)
	p, err := reactor.NewPollerLane(1024, lane)
	if err != nil {
		return nil, err
	}
	w := &shard{
		srv:    s,
		idx:    idx,
		lane:   lane,
		poller: p,
		stats:  &statBlock{},
		conns:  make(map[int]*conn),
		buf:    make([]byte, s.cfg.ReadBuf),
		wheel:  newTimerWheel(s.cfg, time.Now()),
	}
	if pl := s.cfg.Obs; pl != nil {
		w.obs = pl.View(idx)
	}
	if s.fanout {
		w.ring = newSPSCRing(4096)
	} else {
		acc, err := s.newAcceptor(s.shardLfds[idx], p, w, w.adopt)
		if err != nil {
			p.Close()
			return nil, err
		}
		s.shardLfds[idx] = -1 // the acceptor owns it now
		w.acc = acc
	}
	if wd := s.cfg.Watchdog; wd != nil {
		w.hb = wd.Register(fmt.Sprintf("core-worker-%d", idx))
	}
	return w, nil
}

// pendingConn is an accepted fd in flight to a shard, stamped with its
// accept time so the admission controller's latency clock covers the
// ring wait as well as the event-loop lag.
type pendingConn struct {
	fd int
	at time.Time
}

// loop is the shard thread body: a classic reactor loop.
//
//nio:loop
func (w *shard) loop() {
	defer w.srv.wg.Done()
	defer w.shutdown()
	// Dedicated reactor thread (see acceptLoop).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		if w.hb != nil {
			w.hb.Begin()
		}
		w.drainInbox()
		if invariant.Enabled {
			// The full interest-set audit is O(conns); sample it so the
			// invariant build keeps enough throughput for the perf-gated
			// tests to stay meaningful.
			if w.loopTicks%64 == 0 {
				w.assertInterest()
			}
			w.loopTicks++
		}
		select {
		case <-w.srv.stopping:
			return
		default:
		}
		if !w.draining {
			select {
			case <-w.srv.draining:
				w.beginDrain()
			default:
			}
		}
		if w.draining && len(w.conns) == 0 {
			return // drained: every in-flight response has flushed
		}
		now := time.Now()
		// The poller wait is a legitimate park, not work: close the
		// heartbeat span so an idle loop is never mistaken for a wedge.
		if w.hb != nil {
			w.hb.End()
		}
		evs, err := w.poller.Wait(w.waitMs(now))
		if err != nil {
			return
		}
		if w.hb != nil {
			w.hb.Begin()
		}
		now = time.Now()
		w.advanceWheel(now)
		for _, ev := range evs {
			if w.acc != nil && ev.FD == w.acc.FD() {
				if !w.draining {
					w.acc.Ready(now)
				}
				continue
			}
			c, ok := w.conns[ev.FD]
			if !ok {
				continue
			}
			if ev.Hangup {
				w.closeConn(c)
				continue
			}
			if ev.Readable && !w.draining {
				w.readable(c)
			}
			if c2, still := w.conns[ev.FD]; still && c2 == c && ev.Writable {
				w.writable(c)
			}
		}
	}
}

// waitMs bounds the poller wait: one wheel tick while timers are
// pending, the gate remainder while the listener is gated, else block
// indefinitely (pure event-driven park).
func (w *shard) waitMs(now time.Time) int {
	ms := -1
	if wh := w.wheel; wh != nil && wh.count > 0 {
		ms = int(wh.tick.Milliseconds())
		if ms < 1 {
			ms = 1
		}
	}
	if w.acc != nil {
		// A listener that dies re-arming is dropped: this shard keeps
		// serving its connections and its siblings keep accepting.
		ms, _ = w.acc.Arm(now, ms)
	}
	return ms
}

// adopt registers a freshly accepted (or ring-delivered) connection
// with this shard: conn state, poller interest, observability birth
// events, and its first timer-wheel deadline. at is the accept stamp;
// for ring deliveries the gap to now is the fan-out ride the
// queue-wait phase accounts for. In reuseport mode it is the
// acceptor's adopt hook.
//
//nio:loop
func (w *shard) adopt(fd int, at time.Time) {
	now := time.Now()
	c := &conn{fd: fd, lastActive: now, headerStart: now, acceptedAt: at}
	if err := w.poller.Add(fd, true, false); err != nil {
		reactor.CloseFD(w.lane, fd)
		w.srv.connsOpen.add(-1)
		return
	}
	w.conns[fd] = c
	if v := w.obs; v != nil {
		c.obsID = v.NextConnID()
		v.Record(c.obsID, obs.Accept, 0)
		v.Record(c.obsID, obs.QueueWait, now.Sub(at))
	}
	w.scheduleTimeout(c, now)
}

// recordShed is the acceptor's shed hook: a 503 refusal that never
// enters the connection lifecycle, traced as conn 0.
func (w *shard) recordShed() {
	w.stats.shed.add(1)
	if v := w.obs; v != nil {
		v.Record(0, obs.Shed, 0)
	}
}

// assertInterest checks the reactor's connection table against the
// poller's interest-set shadow — only under -tags invariants, where the
// shadow is real. Every registered connection must be in the kernel's
// interest set, and the set must hold exactly the connections plus the
// wakeup pipe (plus this shard's listener when it is armed); drift
// either way means events for a connection the shard no longer owns,
// or a connection that can never wake again.
func (w *shard) assertInterest() {
	for fd := range w.conns {
		invariant.Assertf(w.poller.HasInterest(fd),
			"core: conn fd %d in table but missing from epoll interest set", fd)
	}
	expected := len(w.conns) + 1
	if w.acc != nil && w.acc.Armed() {
		expected++
	}
	invariant.Assertf(w.poller.InterestCount() == expected,
		"core: epoll interest set has %d fds, want %d",
		w.poller.InterestCount(), expected)
}

// beginDrain flips the shard into drain mode: the listener closes,
// idle connections close immediately; connections with queued output
// stop reading (their read interest is dropped) and close once their
// responses flush.
func (w *shard) beginDrain() {
	w.draining = true
	if w.acc != nil {
		w.acc.Close()
	}
	for _, c := range w.conns {
		if len(c.out) == 0 {
			w.closeConn(c)
			continue
		}
		c.closing = true
		c.writeArm = true
		_ = w.poller.Modify(c.fd, false, true)
	}
}

func (w *shard) shutdown() {
	for _, c := range w.conns {
		reactor.CloseFD(w.lane, c.fd)
		w.srv.connsOpen.add(-1)
		if v := w.obs; v != nil && c.obsID != 0 {
			v.Record(c.obsID, obs.Close, 0)
		}
		releaseOut(c)
	}
	w.conns = nil
	if w.acc != nil {
		w.acc.Close()
	}
	// Connections handed over but never registered still hold a
	// connsOpen slot; release them too.
	if w.ring != nil {
		for {
			p, ok := w.ring.pop()
			if !ok {
				break
			}
			reactor.CloseFD(w.lane, p.fd)
			w.srv.connsOpen.add(-1)
		}
	}
	w.poller.Close()
}

// drainInbox adopts every fd the acceptor has pushed onto the SPSC
// ring (fan-out mode only; reuseport shards accept for themselves).
func (w *shard) drainInbox() {
	if w.ring == nil {
		return
	}
	for {
		p, ok := w.ring.pop()
		if !ok {
			return
		}
		if w.draining {
			// Raced in just as the drain began: shed it.
			reactor.CloseFD(w.lane, p.fd)
			w.srv.connsOpen.add(-1)
			continue
		}
		w.adopt(p.fd, p.at)
	}
}

// readable drains the socket and serves every parsed request.
func (w *shard) readable(c *conn) {
	v := w.obs
	c.lastActive = time.Now()
	for {
		n, eof, again, err := reactor.Read(w.lane, c.fd, w.buf)
		if err != nil || eof {
			w.closeConn(c)
			return
		}
		if again {
			break
		}
		if v != nil && n > 0 && c.reqStart.IsZero() {
			c.reqStart = time.Now()
			v.Record(c.obsID, obs.HeaderRead, 0)
		}
		w.reqs = w.reqs[:0]
		reqs, perr := c.parser.Feed(w.reqs, w.buf[:n])
		w.reqs = reqs
		panicked := false
		for _, req := range reqs {
			if v != nil {
				now := time.Now()
				v.Record(c.obsID, obs.Parse, now.Sub(c.reqStart))
				// Pipelined followers in the same batch parse from here,
				// so their parse phase reflects only their own cost.
				c.reqStart = now
				c.handlerStart = now
			}
			if !w.serveSafe(c, req) {
				panicked = true
				if v != nil {
					v.Record(c.obsID, obs.Panic, 0)
				}
				break
			}
			if v != nil {
				// Recorded after serve bumps Stats.Replies, so at any
				// instant the handler-phase count never exceeds replies —
				// the internal-consistency contract the admin scrapers
				// assert under load.
				now := time.Now()
				v.Record(c.obsID, obs.Handler, now.Sub(c.handlerStart))
				c.serveDone = now
			}
		}
		if panicked {
			// The isolation path queued a 500 and marked the connection
			// closing; skip further reads and let flush deliver it.
			break
		}
		if perr != nil {
			w.stats.badRequest.add(1)
			c.out = append(c.out, outSeg{buf: httpwire.AppendResponseHeader(nil, 400, "text/plain", 0, false)})
			c.closing = true
			break
		}
	}
	// Header clock: a buffered partial request keeps (or starts) the
	// clock; a clean boundary stops it — between requests only the idle
	// policy applies.
	if c.parser.Pending() {
		if c.headerStart.IsZero() {
			c.headerStart = c.lastActive
		}
	} else {
		c.headerStart = time.Time{}
		c.reqStart = time.Time{}
	}
	w.flush(c)
	if c2, still := w.conns[c.fd]; still && c2 == c {
		w.scheduleTimeout(c, time.Now())
	}
}

// serveSafe serves one request with panic isolation: a panicking handler
// costs its own connection a best-effort 500 and a close — never the
// process, and never the shard's other connections. It reports whether
// the connection may continue serving pipelined requests.
func (w *shard) serveSafe(c *conn, req *httpwire.Request) (ok bool) {
	mark := len(c.out)
	defer func() {
		if r := recover(); r != nil {
			// Drop whatever the handler partially queued — releasing any
			// docroot references it pinned — and answer with a 500 that
			// closes the connection.
			for i := mark; i < len(c.out); i++ {
				if c.out[i].ent != nil {
					c.out[i].ent.Release()
					c.out[i].ent = nil
				}
			}
			c.out = append(c.out[:mark], outSeg{buf: httpwire.AppendResponseHeader(nil, 500, "text/plain", 0, false)})
			c.closing = true
			c.replies++
			w.stats.replies.add(1)
			w.stats.handlerPanics.add(1)
			ok = false
		}
	}()
	w.serve(c, req)
	return true
}

// applyFault executes an injected fault on the reactor thread — exactly
// where handler work runs in this architecture, so a Delay or Spin
// stalls the owning loop (the architecture's honest cost model for
// handler work) and a Wedge is precisely what the watchdog exists to
// flag.
func (w *shard) applyFault(f Fault) {
	if f.Delay > 0 {
		time.Sleep(f.Delay) //nio:ok loopblock -- injected fault: stalling the loop is the point
	}
	if f.Spin > 0 {
		// Busy-burn, not sleep: the shard-scaling sweep needs handler
		// cost that consumes a real core, so N shards on N cores can
		// honestly multiply throughput where sleeping handlers would
		// overlap arbitrarily on one.
		for end := time.Now().Add(f.Spin); time.Now().Before(end); {
		}
	}
	if f.Wedge != nil {
		select { //nio:ok loopblock -- injected wedge: the watchdog test drives this
		case <-f.Wedge:
		case <-w.srv.stopping:
		}
	}
	if f.Panic {
		panic("core: injected handler panic")
	}
}

// serve appends one response to the connection's output queue.
func (w *shard) serve(c *conn, req *httpwire.Request) {
	if invariant.Enabled {
		invariant.Assertf(!c.closed, "core: response queued on closed conn fd %d", c.fd)
	}
	if ff := w.srv.cfg.HandlerFault; ff != nil {
		w.applyFault(ff(req.Path))
	}
	switch {
	case req.Method != "GET" && req.Method != "HEAD":
		c.out = append(c.out, outSeg{buf: httpwire.AppendResponseHeader(nil, 501, "text/plain", 0, req.KeepAlive)})
	case w.srv.cfg.Docroot != nil:
		w.serveDocroot(c, req)
	default:
		w.serveStore(c, req)
	}
	c.replies++
	w.stats.replies.add(1)
	if !req.KeepAlive {
		c.closing = true
	}
}

// serveStore resolves the path against the store and queues 200/404.
func (w *shard) serveStore(c *conn, req *httpwire.Request) {
	body, ctype, ok := w.srv.cfg.Store.Get(req.Path)
	if !ok {
		w.stats.notFound.add(1)
		c.out = append(c.out, outSeg{buf: httpwire.AppendResponseHeader(nil, 404, "text/plain", 0, req.KeepAlive)})
	} else {
		c.out = append(c.out, outSeg{buf: httpwire.AppendResponseHeader(nil, 200, ctype, int64(len(body)), req.KeepAlive)})
		if req.Method == "GET" && len(body) > 0 {
			c.out = append(c.out, outSeg{buf: body})
		}
	}
}

// serveDocroot resolves the path against the disk-backed docroot and
// queues 200/304/404. Bodies cached in memory are queued as byte
// segments (buffered copy); everything else becomes a sendfile segment
// holding a reference to the entry's shared fd.
func (w *shard) serveDocroot(c *conn, req *httpwire.Request) {
	ent, err := w.srv.cfg.Docroot.Get(req.Path)
	if err != nil {
		w.stats.notFound.add(1)
		c.out = append(c.out, outSeg{buf: httpwire.AppendResponseHeader(nil, 404, "text/plain", 0, req.KeepAlive)})
		return
	}
	if httpwire.NotModified(req, ent.ETag, ent.ModTime) {
		w.stats.notModified.add(1)
		c.out = append(c.out, outSeg{buf: httpwire.AppendResponseHeaderValidators(
			nil, 304, ent.ContentType, 0, req.KeepAlive, ent.ETag, ent.LastModified)})
		ent.Release()
		return
	}
	c.out = append(c.out, outSeg{buf: httpwire.AppendResponseHeaderValidators(
		nil, 200, ent.ContentType, ent.Size, req.KeepAlive, ent.ETag, ent.LastModified)})
	if req.Method != "GET" || ent.Size == 0 {
		ent.Release()
		return
	}
	if body := ent.Body(); body != nil {
		// Buffered path: the immutable body slice outlives the entry, so
		// the reference can be dropped immediately.
		c.out = append(c.out, outSeg{buf: body})
		ent.Release()
		return
	}
	// Zero-copy path: the segment owns the reference until fully sent.
	c.out = append(c.out, outSeg{ent: ent, off: 0, end: ent.Size})
}

// sendfileChunk bounds one sendfile call so a single huge file cannot
// monopolize the reactor thread: after each chunk the loop re-checks
// for EAGAIN and other connections get their turn on the next wait.
const sendfileChunk = 512 << 10

// flush writes queued output until the socket would block, then toggles
// write interest accordingly — the NIO write-readiness pattern. Byte
// segments go through write(2) (resume point c.outOff); file segments
// go through sendfile(2), whose kernel-advanced offset is its own
// resume point, so a response interrupted mid-file continues exactly
// where the socket buffer filled.
//
//nio:hot
func (w *shard) flush(c *conn) {
	if invariant.Enabled {
		invariant.Assertf(!c.closed, "core: flush on closed conn fd %d", c.fd)
	}
	v := w.obs
	for len(c.out) > 0 {
		seg := &c.out[0]
		if seg.ent != nil && !seg.fallback {
			max := sendfileChunk
			if rem := seg.end - seg.off; int64(max) > rem {
				max = int(rem)
			}
			n, again, err := reactor.Sendfile(w.lane, c.fd, seg.ent.FD(), &seg.off, max)
			if err != nil {
				if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
					// The peer is gone; nothing to deliver to.
					w.stats.writeResets.add(1)
					w.closeConn(c)
					return
				}
				// Anything else (EINVAL/EIO: the fs or the kernel refusing
				// the fast path) downgrades this segment to buffered
				// delivery from the same resume offset — a failing
				// sendfile(2) never advances *off, so not one response
				// byte is skipped or repeated.
				w.stats.sendfileFallbacks.add(1)
				seg.fallback = true
				continue
			}
			w.wrote(c, n)
			w.stats.sendfileBytes.add(int64(n))
			if seg.off >= seg.end {
				seg.ent.Release()
				c.out[0] = outSeg{}
				c.out = c.out[1:]
				continue
			}
			if again || n == 0 {
				w.armWrite(c)
				return
			}
			continue // partial progress without EAGAIN: keep pushing
		}
		if seg.ent != nil {
			// Buffered fallback for a failed sendfile segment: read the
			// next chunk at the resume offset and push it through the
			// ordinary non-blocking write path. A partial write just
			// advances off; the next pass re-reads from there, so
			// idempotence is free.
			if !w.flushFallback(c, seg) {
				return
			}
			continue
		}
		head := seg.buf[c.outOff:]
		n, again, err := reactor.Write(w.lane, c.fd, head)
		if err != nil {
			w.writeFailed(c, err)
			return
		}
		w.wrote(c, n)
		if n == len(head) {
			c.out[0] = outSeg{}
			c.out = c.out[1:]
			c.outOff = 0
			continue
		}
		c.outOff += n
		if again || n < len(head) {
			w.armWrite(c)
			return
		}
	}
	// Drained.
	if v != nil && !c.serveDone.IsZero() {
		// The write phase closes when the queue drains: for pipelined
		// batches this is one record per batch, clocked from the last
		// serve — the honest cost of pushing the batch out the socket.
		v.Record(c.obsID, obs.WriteComplete, time.Since(c.serveDone))
		c.serveDone = time.Time{}
	}
	w.observeFirst(c)
	if c.closing {
		w.closeConn(c)
		return
	}
	if c.writeArm {
		c.writeArm = false
		_ = w.poller.Modify(c.fd, true, false)
	}
}

// fallbackChunk bounds one buffered-fallback read+write so a degraded
// response cannot monopolize the reactor thread any more than a
// healthy sendfile one can.
const fallbackChunk = 64 << 10

// flushFallback pushes one chunk of a downgraded file segment (see
// outSeg.fallback). It reports whether flush may continue with the
// queue; false means the connection was torn down or the socket
// blocked (write interest armed) and flush must return.
func (w *shard) flushFallback(c *conn, seg *outSeg) bool {
	if w.fbuf == nil {
		w.fbuf = make([]byte, fallbackChunk)
	}
	chunk := w.fbuf
	if rem := seg.end - seg.off; rem < int64(len(chunk)) {
		chunk = chunk[:rem]
	}
	rn, rerr := seg.ent.ReadAt(chunk, seg.off)
	if rn == 0 {
		// Cannot even read the file any more: the response cannot be
		// completed honestly, so the connection must die rather than
		// deliver a short body that looks complete.
		_ = rerr
		w.closeConn(c)
		return false
	}
	n, again, err := reactor.Write(w.lane, c.fd, chunk[:rn])
	if err != nil {
		w.writeFailed(c, err)
		return false
	}
	seg.off += int64(n)
	w.wrote(c, n)
	if seg.off >= seg.end {
		seg.ent.Release()
		c.out[0] = outSeg{}
		c.out = c.out[1:]
		return true
	}
	if again || n < rn {
		w.armWrite(c)
		return false
	}
	return true
}

// wrote counts n bytes written to c and traces its first response
// byte.
//
//nio:hot
func (w *shard) wrote(c *conn, n int) {
	w.stats.bytesOut.add(int64(n))
	if v := w.obs; v != nil && n > 0 && !c.firstByte {
		c.firstByte = true
		v.Record(c.obsID, obs.FirstByte, time.Since(c.acceptedAt))
	}
}

// writeFailed handles a failed write. Transient kernel buffer
// exhaustion (ENOBUFS) is a stall, not a failure: keep the queue,
// re-arm write interest, retry when the loop next signals writability.
// Anything else tears the connection down.
func (w *shard) writeFailed(c *conn, err error) {
	if errors.Is(err, syscall.ENOBUFS) {
		w.stats.writeStalls.add(1)
		w.armWrite(c)
		return
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		w.stats.writeResets.add(1)
	}
	w.closeConn(c)
}

// observeFirst feeds the admission controller the connection's
// accept-to-first-response latency, once, when its first response has
// fully left the socket. First-response latency captures the event-loop
// lag an overloaded reactor accrues — the signal the AIMD loop steers by.
func (w *shard) observeFirst(c *conn) {
	if c.observed || c.replies == 0 {
		return
	}
	c.observed = true
	if ac := w.srv.cfg.Admission; ac != nil {
		ac.Observe(time.Since(c.acceptedAt))
	}
}

// armWrite enables EPOLLOUT for a connection whose socket buffer is
// full.
func (w *shard) armWrite(c *conn) {
	if !c.writeArm {
		c.writeArm = true
		_ = w.poller.Modify(c.fd, true, true)
	}
}

// writable continues a blocked flush, then re-arms the idle clock if
// the queue drained (a blocked writer leaves the wheel; see
// connDeadline).
func (w *shard) writable(c *conn) {
	w.flush(c)
	if c2, still := w.conns[c.fd]; still && c2 == c {
		w.scheduleTimeout(c, time.Now())
	}
}

// resetConn tears a connection down with an RST.
func (w *shard) resetConn(c *conn) {
	if _, ok := w.conns[c.fd]; !ok {
		return
	}
	delete(w.conns, c.fd)
	w.poller.Remove(c.fd)
	reactor.CloseWithReset(w.lane, c.fd)
	c.closed = true
	if v := w.obs; v != nil && c.obsID != 0 {
		v.Record(c.obsID, obs.Close, 0)
	}
	w.uncount()
	releaseOut(c)
}

func (w *shard) closeConn(c *conn) {
	if _, ok := w.conns[c.fd]; !ok {
		return
	}
	delete(w.conns, c.fd)
	w.poller.Remove(c.fd)
	reactor.CloseFD(w.lane, c.fd)
	c.closed = true
	if v := w.obs; v != nil && c.obsID != 0 {
		v.Record(c.obsID, obs.Close, 0)
	}
	w.uncount()
	releaseOut(c)
}

// uncount gives a torn-down connection's connsOpen slot back.
func (w *shard) uncount() {
	w.srv.connsOpen.add(-1)
	if invariant.Enabled {
		invariant.Assertf(w.srv.connsOpen.get() >= 0,
			"core: connsOpen went negative (%d)", w.srv.connsOpen.get())
	}
}

// StatsFields renders a Stats snapshot in the admin endpoint's stable
// field order. The order is part of the /stats text contract (see the
// golden-file tests); append new counters at the end.
func StatsFields(st Stats) []obs.Field {
	return []obs.Field{
		{Name: "accepted", Value: st.Accepted},
		{Name: "replies", Value: st.Replies},
		{Name: "bytes_out", Value: st.BytesOut},
		{Name: "not_found", Value: st.NotFound},
		{Name: "bad_request", Value: st.BadRequest},
		{Name: "conns_open", Value: st.ConnsOpen},
		{Name: "idle_closes", Value: st.IdleCloses},
		{Name: "shed", Value: st.Shed},
		{Name: "header_timeouts", Value: st.HeaderTimeouts},
		{Name: "not_modified", Value: st.NotModified},
		{Name: "sendfile_bytes", Value: st.SendfileBytes},
		{Name: "handler_panics", Value: st.HandlerPanics},
		{Name: "accept_emfile", Value: st.AcceptEMFILE},
		{Name: "accept_backoffs", Value: st.AcceptBackoffs},
		{Name: "write_stalls", Value: st.WriteStalls},
		{Name: "write_resets", Value: st.WriteResets},
		{Name: "sendfile_fallbacks", Value: st.SendfileFallbacks},
	}
}

// releaseOut drops the docroot references held by unsent sendfile
// segments when a connection dies mid-response, so shared fds are not
// pinned by dead connections.
func releaseOut(c *conn) {
	for i := range c.out {
		if c.out[i].ent != nil {
			c.out[i].ent.Release()
			c.out[i].ent = nil
		}
	}
	c.out = nil
}
