//go:build linux

package reactor

import (
	"io"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/sysfault"
)

// acceptLane is the fault lane the Acceptor tests run on: a nonzero
// lane, so the tests also prove the pipeline addresses its owner's
// stream rather than the legacy lane 0.
const acceptLane sysfault.Lane = 3

// acceptRig is one Acceptor on its own listener and poller, with hooks
// that record what the pipeline asked of its owner.
type acceptRig struct {
	a        *Acceptor
	p        *Poller
	port     int
	adopted  []int
	sheds    int
	pressure int
	full     bool // Acquire refuses while set
}

func newAcceptRig(t *testing.T, extra ...httpwire.Header) *acceptRig {
	t.Helper()
	p, err := NewPollerLane(16, acceptLane)
	if err != nil {
		t.Fatal(err)
	}
	lfd, port, err := Listen(0, 16)
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	r := &acceptRig{p: p, port: port}
	r.a, err = NewAcceptor(AcceptConfig{
		Listener:      lfd,
		Poller:        p,
		RetryAfterSec: 7,
		ShedHeaders:   extra,
		Acquire:       func() bool { return !r.full },
		Adopt:         func(fd int, at time.Time) { r.adopted = append(r.adopted, fd) },
		OnShed:        func() { r.sheds++ },
		OnFDPressure:  func() { r.pressure++ },
	})
	if err != nil {
		CloseFD(0, lfd)
		p.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, fd := range r.adopted {
			CloseFD(0, fd)
		}
		r.a.Close()
		p.Close()
	})
	return r
}

// waitListener blocks until the listener reports readable, so the
// dialled connection is really in the kernel's accept queue.
func (r *acceptRig) waitListener(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		evs, err := r.p.Wait(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.FD == r.a.FD() {
				return
			}
		}
	}
	t.Fatal("listener never became readable")
}

// arm runs the pre-wait step and requires the listener to survive it.
func arm(t *testing.T, a *Acceptor, now time.Time, ms int) int {
	t.Helper()
	wait, ok := a.Arm(now, ms)
	if !ok {
		t.Fatal("listener died re-arming")
	}
	return wait
}

// gateMs is the poller timeout a fresh gate of length d asks for.
func gateMs(d time.Duration) int { return int(d/time.Millisecond) + 1 }

// installPlan arms the seam for one test and disarms it afterwards.
func installPlan(t *testing.T, seed uint64, plan string) *sysfault.Injector {
	t.Helper()
	inj := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
	sysfault.Install(inj)
	t.Cleanup(sysfault.Uninstall)
	return inj
}

// requireLaneReplay checks that the live accept decisions on the test's
// lane are exactly what an offline Step replay of the same seed and
// plan produces for the same number of calls.
func requireLaneReplay(t *testing.T, seed uint64, plan string, inj *sysfault.Injector) {
	t.Helper()
	var live []sysfault.Decision
	for _, d := range inj.Decisions() {
		if d.Lane == acceptLane && d.Site == sysfault.SiteAccept {
			live = append(live, d)
		}
	}
	calls := inj.LaneStats(acceptLane)[sysfault.SiteAccept].Calls
	off := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
	var replay []sysfault.Decision
	for i := uint64(0); i < calls; i++ {
		if d, ok := off.StepLane(sysfault.SiteAccept, acceptLane); ok {
			replay = append(replay, d)
		}
	}
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("live accept decisions %v, offline replay %v", live, replay)
	}
	if inj.LaneStats(0)[sysfault.SiteAccept].Calls != 0 {
		t.Fatal("the acceptor drew from lane 0, not its poller's lane")
	}
}

func TestAcceptorEMFILEShedsOneAndRearms(t *testing.T) {
	const plan = "accept:emfile:1:count=1:lane=3"
	for _, seed := range []uint64{1, 2, 3} {
		r := newAcceptRig(t, httpwire.Header{Name: "Via", Value: "1.1 test"})
		inj := installPlan(t, seed, plan)

		c := dial(t, r.port)
		r.waitListener(t)
		now := time.Now()
		if !r.a.Ready(now) {
			t.Fatal("EMFILE reported the listener dead")
		}
		// The reserve dance accepted the pending connection and shed it.
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		raw, err := io.ReadAll(c)
		if err != nil {
			t.Fatal(err)
		}
		resp := string(raw)
		for _, want := range []string{"HTTP/1.1 503 ", "\r\nRetry-After: 7\r\n", "\r\nVia: 1.1 test\r\n", "\r\nConnection: close\r\n"} {
			if !strings.Contains(resp, want) {
				t.Fatalf("shed response lacks %q:\n%s", want, resp)
			}
		}
		if strings.Index(resp, "Retry-After") > strings.Index(resp, "Via") {
			t.Fatalf("extra headers must follow Retry-After:\n%s", resp)
		}
		got := r.a.Counts()
		if got != (AcceptCounts{EMFILE: 1, Backoffs: 1}) || r.sheds != 1 || r.pressure != 1 || len(r.adopted) != 0 {
			t.Fatalf("counts %+v sheds=%d pressure=%d adopted=%d; want one EMFILE, one backoff, one shed, one pressure call, no adoption",
				got, r.sheds, r.pressure, len(r.adopted))
		}

		// Gated: out of the interest set, with the wait bounded by the gate.
		if r.a.Armed() {
			t.Fatal("listener still armed after EMFILE")
		}
		if ms := arm(t, r.a, now, -1); ms != gateMs(AcceptBackoffMin) || r.a.Armed() {
			t.Fatalf("before the gate expires: wait %d (want %d), armed=%v", ms, gateMs(AcceptBackoffMin), r.a.Armed())
		}
		if ms := arm(t, r.a, now.Add(AcceptBackoffMin), -1); ms != -1 || !r.a.Armed() {
			t.Fatalf("once the gate expires: wait %d (want -1), armed=%v", ms, r.a.Armed())
		}

		// Re-armed: the next connection is adopted.
		dial(t, r.port)
		r.waitListener(t)
		if !r.a.Ready(time.Now()) || len(r.adopted) != 1 {
			t.Fatalf("after re-arm: adopted %d connections, want 1", len(r.adopted))
		}
		if got := r.a.Counts(); got != (AcceptCounts{Accepted: 1, EMFILE: 1, Backoffs: 1}) {
			t.Fatalf("final counts %+v", got)
		}
		requireLaneReplay(t, seed, plan, inj)
		sysfault.Uninstall()
	}
}

func TestAcceptorENOBUFSGatesWithoutShed(t *testing.T) {
	const seed, plan = 1, "accept:enobufs:1:count=1:lane=3"
	r := newAcceptRig(t)
	inj := installPlan(t, seed, plan)

	dial(t, r.port)
	r.waitListener(t)
	now := time.Now()
	if !r.a.Ready(now) {
		t.Fatal("ENOBUFS reported the listener dead")
	}
	if got := r.a.Counts(); got != (AcceptCounts{Backoffs: 1}) || r.sheds != 0 || r.pressure != 0 {
		t.Fatalf("counts %+v sheds=%d pressure=%d; want one backoff and nothing else", got, r.sheds, r.pressure)
	}
	if r.a.Armed() {
		t.Fatal("listener still armed after ENOBUFS")
	}
	// The connection stayed queued in the kernel and is adopted once
	// the gate expires.
	arm(t, r.a, now.Add(AcceptBackoffMin), -1)
	r.waitListener(t)
	if !r.a.Ready(time.Now()) || len(r.adopted) != 1 {
		t.Fatalf("adopted %d connections after the gate, want 1", len(r.adopted))
	}
	requireLaneReplay(t, seed, plan, inj)
}

func TestAcceptorBackoffDoublesAndCaps(t *testing.T) {
	const seed, plan = 1, "accept:enobufs:1:lane=3"
	r := newAcceptRig(t)
	inj := installPlan(t, seed, plan)

	now := time.Now()
	want := []time.Duration{5, 10, 20, 40, 80, 160, 250, 250}
	for i, w := range want {
		w *= time.Millisecond
		if !r.a.Ready(now) {
			t.Fatal("ENOBUFS reported the listener dead")
		}
		if ms := arm(t, r.a, now, -1); ms != gateMs(w) {
			t.Fatalf("gate %d: wait %d, want %d", i, ms, gateMs(w))
		}
		// A shorter caller timeout wins over the gate.
		if ms := arm(t, r.a, now, 2); ms != 2 {
			t.Fatalf("gate %d: wait(2) = %d", i, ms)
		}
		now = now.Add(w)
		if arm(t, r.a, now, -1); !r.a.Armed() {
			t.Fatalf("gate %d not re-armed after %v", i, w)
		}
	}
	if got := r.a.Counts().Backoffs; got != int64(len(want)) {
		t.Fatalf("backoffs = %d, want %d", got, len(want))
	}
	requireLaneReplay(t, seed, plan, inj)

	// A successful accept resets the backoff to the minimum.
	sysfault.Uninstall()
	dial(t, r.port)
	r.waitListener(t)
	r.a.Ready(now)
	installPlan(t, seed, plan)
	r.a.Ready(now)
	if ms := arm(t, r.a, now, -1); ms != gateMs(AcceptBackoffMin) {
		t.Fatalf("after a successful accept the gate asks %d ms, want the minimum %d", ms, gateMs(AcceptBackoffMin))
	}
}

func TestAcceptorCeilingSheds(t *testing.T) {
	r := newAcceptRig(t)
	r.full = true
	c := dial(t, r.port)
	r.waitListener(t)
	r.a.Ready(time.Now())
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	raw, _ := io.ReadAll(c)
	if !strings.HasPrefix(string(raw), "HTTP/1.1 503 ") || !strings.Contains(string(raw), "\r\nRetry-After: 7\r\n") {
		t.Fatalf("over-ceiling connection not shed: %q", raw)
	}
	if got := r.a.Counts(); got != (AcceptCounts{Accepted: 1}) || r.sheds != 1 || len(r.adopted) != 0 {
		t.Fatalf("counts %+v sheds=%d adopted=%d", got, r.sheds, len(r.adopted))
	}
}

func TestAcceptorDeadListener(t *testing.T) {
	r := newAcceptRig(t)
	// A shut-down listening socket fails accept(2) with EINVAL: not an
	// exhaustion the pipeline can absorb.
	if err := syscall.Shutdown(r.a.FD(), syscall.SHUT_RDWR); err != nil {
		t.Fatal(err)
	}
	if r.a.Ready(time.Now()) {
		t.Fatal("dead listener not reported")
	}
	if r.a.FD() != -1 || r.a.Armed() {
		t.Fatal("dead listener not closed")
	}
	if got := r.a.Counts(); got != (AcceptCounts{}) || r.sheds != 0 {
		t.Fatalf("counts %+v sheds=%d on a dead listener", got, r.sheds)
	}
	if ms := arm(t, r.a, time.Now(), -1); ms != -1 || r.a.Armed() {
		t.Fatal("a closed acceptor must neither re-arm nor bound the wait")
	}
}
