//go:build linux

package reactor

import (
	"errors"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/httpwire"
	"repro/internal/overload"
)

// Accept-gate backoff bounds: exponential from AcceptBackoffMin, capped
// at AcceptBackoffMax, reset to zero by any successful accept.
const (
	AcceptBackoffMin = 5 * time.Millisecond
	AcceptBackoffMax = 250 * time.Millisecond
)

// AcceptConfig wires one Acceptor to its owner. The hooks are fixed at
// construction, so the per-accept path builds no closures.
type AcceptConfig struct {
	Listener int     // non-blocking; owned by the Acceptor once NewAcceptor succeeds
	Poller   *Poller // holds the listener while armed; its lane carries every syscall
	// Admission, when non-nil, is consulted first on every accept;
	// its refusals carry its own Retry-After.
	Admission *overload.Controller
	// RetryAfterSec is advertised on the other sheds: the owner's
	// ceiling and the EMFILE reserve dance.
	RetryAfterSec int
	ShedHeaders   []httpwire.Header // sent after Retry-After on every 503 (the proxy's Via)
	// Acquire claims one open-connection slot under the owner's
	// ceiling; false sheds the connection. nil means no ceiling.
	Acquire func() bool
	Adopt   func(fd int, at time.Time) // takes an admitted fd; at is the loop's wake time
	// OnShed runs before each 503 is written, so the owner's counters
	// are published before the client can see the refusal.
	OnShed func()
	// OnFDPressure, when non-nil, runs on EMFILE/ENFILE before the
	// reserve dance, to give back descriptors the owner can spare.
	OnFDPressure func()
}

// AcceptCounts is a snapshot of an Acceptor's counters: connections
// taken off the listener (shed or not), EMFILE/ENFILE refusals absorbed
// by the reserve dance, and accept-gate pauses.
type AcceptCounts struct{ Accepted, EMFILE, Backoffs int64 }

// Acceptor is the one accept pipeline of core's reuseport shards,
// core's fan-out acceptor thread and the proxy loop. It owns a
// listening socket, the /dev/null reserve that EMFILE recovery burns,
// and the non-blocking accept gate. Every accepted fd goes through
// admission, then the owner's ceiling, then the 503 shed writer or the
// owner's Adopt hook. Every method except Counts runs on the loop that
// owns the poller.
type Acceptor struct {
	cfg AcceptConfig
	//nio:loop-owned
	lfd int
	//nio:loop-owned
	reserve int
	// gated: the listener is out of the interest set until gateUntil.
	//nio:loop-owned
	gated bool
	//nio:loop-owned
	gateUntil time.Time
	//nio:loop-owned
	backoff time.Duration
	// shedHdrs is Retry-After (rewritten per shed) + ShedHeaders.
	//nio:loop-owned
	shedHdrs []httpwire.Header
	//nio:loop-owned
	shedBuf []byte

	accepted atomic.Int64
	emfile   atomic.Int64
	backoffs atomic.Int64
}

// NewAcceptor registers cfg.Listener with cfg.Poller and opens the
// reserve descriptor. On error the caller still owns the listener.
func NewAcceptor(cfg AcceptConfig) (*Acceptor, error) {
	if err := cfg.Poller.Add(cfg.Listener, true, false); err != nil {
		return nil, err
	}
	return &Acceptor{
		cfg:      cfg,
		lfd:      cfg.Listener,
		reserve:  openReserve(),
		shedHdrs: append([]httpwire.Header{{Name: "Retry-After"}}, cfg.ShedHeaders...),
	}, nil
}

// openReserve opens the EMFILE reserve descriptor. A failure to open
// it (-1) only disables the recovery, never the listener.
func openReserve() int {
	fd, err := syscall.Open("/dev/null", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return -1
	}
	return fd
}

// FD returns the listening socket (-1 once closed) for event dispatch.
//
//nio:loop
func (a *Acceptor) FD() int { return a.lfd }

// Armed reports whether the listener is in the poller's interest set.
//
//nio:loop
func (a *Acceptor) Armed() bool { return a.lfd >= 0 && !a.gated }

// Counts returns the accept-side counters. Safe from any goroutine.
func (a *Acceptor) Counts() AcceptCounts {
	return AcceptCounts{
		Accepted: a.accepted.Load(),
		EMFILE:   a.emfile.Load(),
		Backoffs: a.backoffs.Load(),
	}
}

// Ready drains the listener until EAGAIN, skipping ECONNABORTED; now
// is when the loop woke. EMFILE/ENFILE runs the pressure hook, the
// reserve dance and the gate; ENOBUFS/ENOMEM only gate (nothing to
// free on our side). Any other error means the listener is dead: Ready
// closes it and reports false, and the owner decides whether to keep
// serving its connections.
//
//nio:loop
//nio:hot
func (a *Acceptor) Ready(now time.Time) bool {
	for {
		fd, done, err := Accept(a.cfg.Poller.lane, a.lfd)
		if err != nil {
			switch {
			case errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE):
				a.emfile.Add(1)
				if a.cfg.OnFDPressure != nil {
					a.cfg.OnFDPressure()
				}
				a.drainReserve()
				a.gate(now)
				return true
			case errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.ENOMEM):
				a.gate(now)
				return true
			}
			a.Close()
			return false
		}
		if done {
			return true
		}
		if fd < 0 {
			continue // ECONNABORTED: the peer gave up while queued
		}
		a.backoff = 0
		a.accepted.Add(1)
		if ac := a.cfg.Admission; ac != nil && !ac.Admit() {
			a.shed(fd, ac.RetryAfterSeconds())
			continue
		}
		if a.cfg.Acquire != nil && !a.cfg.Acquire() {
			a.shed(fd, a.cfg.RetryAfterSec)
			continue
		}
		a.cfg.Adopt(fd, now)
	}
}

// drainReserve is the reserve-descriptor dance: close the reserve to
// free one slot, accept the connection the kernel is holding and shed
// it, so the client backs off instead of waiting in the accept queue
// for a descriptor to free by chance, then re-open the reserve.
//
//nio:loop
func (a *Acceptor) drainReserve() {
	if a.reserve < 0 {
		return
	}
	CloseFD(a.cfg.Poller.lane, a.reserve)
	a.reserve = -1
	fd, done, err := Accept(a.cfg.Poller.lane, a.lfd)
	if err == nil && !done && fd >= 0 {
		a.shed(fd, a.cfg.RetryAfterSec)
	}
	a.reserve = openReserve()
}

// shed answers a refused connection with 503 + Retry-After + the
// owner's headers + Connection: close, and closes it. The socket is
// fresh, so the short non-blocking write lands in its empty buffer.
//
//nio:loop
//nio:hot
func (a *Acceptor) shed(fd int, retryAfterSec int) {
	if a.cfg.OnShed != nil {
		a.cfg.OnShed()
	}
	a.shedHdrs[0].Value = strconv.Itoa(retryAfterSec)
	a.shedBuf = httpwire.AppendResponseHeaderExtra(a.shedBuf[:0], 503, "text/plain", 0, false, a.shedHdrs...)
	_, _, _ = Write(a.cfg.Poller.lane, fd, a.shedBuf)
	CloseFD(a.cfg.Poller.lane, fd)
}

// gate takes the listener out of the interest set (level-triggered, it
// would wake the loop hot) until the backoff expires and Arm restores
// it. The loop keeps serving meanwhile: the gate pauses admission,
// never service.
//
//nio:loop
func (a *Acceptor) gate(now time.Time) {
	if a.backoff < AcceptBackoffMin {
		a.backoff = AcceptBackoffMin
	} else if a.backoff *= 2; a.backoff > AcceptBackoffMax {
		a.backoff = AcceptBackoffMax
	}
	a.backoffs.Add(1)
	a.gateUntil = now.Add(a.backoff)
	if !a.gated {
		a.gated = true
		a.cfg.Poller.Remove(a.lfd)
	}
}

// Arm runs before each poller wait: it re-arms a gate whose backoff
// has expired and bounds the wait timeout ms (-1 = forever) so the
// loop wakes when a still-closed gate expires. ok is false only when
// re-registering fails: the listener is then dead and closed.
//
//nio:loop
func (a *Acceptor) Arm(now time.Time, ms int) (wait int, ok bool) {
	if !a.gated {
		return ms, true
	}
	if !now.Before(a.gateUntil) {
		a.gated = false
		if err := a.cfg.Poller.Add(a.lfd, true, false); err != nil {
			a.Close()
			return ms, false
		}
		return ms, true
	}
	g := int(a.gateUntil.Sub(now).Milliseconds()) + 1
	if ms < 0 || g < ms {
		return g, true
	}
	return ms, true
}

// Close deregisters and closes the listener and the reserve. Calling
// it again does nothing; Counts stays readable.
//
//nio:loop
func (a *Acceptor) Close() {
	if a.lfd >= 0 {
		if !a.gated {
			a.cfg.Poller.Remove(a.lfd)
		}
		CloseFD(a.cfg.Poller.lane, a.lfd)
		a.lfd = -1
		a.gated = false
	}
	if a.reserve >= 0 {
		CloseFD(a.cfg.Poller.lane, a.reserve)
		a.reserve = -1
	}
}
