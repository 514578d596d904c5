//go:build linux

package repro

// chaos_test.go is the scripted chaos harness: it runs the named
// degraded-network scenarios from internal/faultline/scenario against
// both live servers and holds them to the paper's claims on real
// sockets.
//
//   - The bandwidth sweep (100 Mbit → 200 Mbit → 1 Gbit, at 1/10 scale)
//     must reproduce the Figures 5–6 regime split live: goodput tracks
//     the link cap on the constrained links and tracks the pinned CPU
//     ceiling once the link opens up — and each live point must agree
//     with the discrete-event prediction within a stated, logged
//     tolerance (calibration drift between simulator and live stack).
//   - The fault scenarios (segment loss, jitter storm, reorder burst)
//     must be survivable: replies keep flowing, HTTP semantics stay
//     correct, the watchdog stays clean, and a post-run probe proves
//     neither server wedged.
//   - Conditional requests (ETag/304 revalidation) must stay coherent
//     through a lossy, reordering link.
//   - Identical seeds must replay identical link behaviour, asserted at
//     both the decision-stream and the live-proxy level.
//
// The emulated scenarios are seeded from CHAOS_SEED (default 1) so CI
// can run a seed matrix; on failure the faultline link stats and the
// obs trace ring are dumped to OBS_ARTIFACT_DIR as artifacts.

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/docroot"
	"repro/internal/experiments"
	"repro/internal/faultline"
	"repro/internal/faultline/scenario"
	"repro/internal/loadgen"
	"repro/internal/mtserver"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/surge"
)

// chaosSeed returns the scenario seed: CHAOS_SEED when set (the CI
// matrix), 1 otherwise.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
	}
	return seed
}

// dumpNetStatsOnFailure ships the proxy's link stats as a CI artifact
// when the test fails (same contract as dumpRingOnFailure).
func dumpNetStatsOnFailure(t *testing.T, name string, stats func() faultline.Stats) {
	t.Cleanup(func() {
		dir := os.Getenv("OBS_ARTIFACT_DIR")
		if !t.Failed() || dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		path := filepath.Join(dir, name+"-faultline.txt")
		if err := os.WriteFile(path, []byte(stats().String()+"\n"), 0o644); err != nil {
			t.Logf("writing faultline stats: %v", err)
			return
		}
		t.Logf("faultline stats dumped to %s", path)
	})
}

// cpuPin serializes request handling behind one mutex and charges each
// request a fixed service time — a single-CPU compute model that is the
// same for both architectures. On the event-driven core (one fan-out shard)
// the worker thread already serializes and the mutex is free; on the
// thread pool it makes N parallel threads share one emulated processor,
// so both servers present the identical CPU ceiling the scenario's
// Predict model assumes (concurrency 1).
type cpuPin struct {
	mu sync.Mutex
	d  time.Duration
}

func (p *cpuPin) fault(string) core.Fault {
	p.mu.Lock()
	time.Sleep(p.d)
	p.mu.Unlock()
	return core.Fault{}
}

// chaosServer is one live server wired for the chaos suite: pinned CPU
// cost, stall watchdog, observability plane.
type chaosServer struct {
	addr string
	stop func()
	wd   *overload.Watchdog
	pl   *obs.Plane
}

// chaosStore serves the scenarios' fixed object.
func chaosStore(objectBytes int64) core.MapStore {
	return core.MapStore{"/obj/0": make([]byte, objectBytes)}
}

func startChaosServer(t *testing.T, kind string, store core.Store, svc time.Duration) chaosServer {
	t.Helper()
	wd, err := overload.NewWatchdog(overload.WatchdogConfig{Interval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pl := obs.NewPlane(4096)
	pin := &cpuPin{d: svc}
	switch kind {
	case "nio":
		cfg := core.DefaultConfig(store)
		cfg.Shards = 1
		cfg.AcceptFanout = true
		cfg.HandlerFault = pin.fault
		cfg.Watchdog = wd
		cfg.Obs = pl
		srv, err := core.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return chaosServer{addr: srv.Addr(), stop: func() { srv.Stop(); wd.Stop() }, wd: wd, pl: pl}
	case "mt":
		cfg := mtserver.DefaultConfig(store)
		cfg.Threads = 16
		cfg.HandlerFault = pin.fault
		cfg.Watchdog = wd
		cfg.Obs = pl
		srv, err := mtserver.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return chaosServer{addr: srv.Addr(), stop: func() { srv.Stop(); wd.Stop() }, wd: wd, pl: pl}
	}
	t.Fatalf("unknown server kind %q", kind)
	return chaosServer{}
}

// requireAlive asserts the server still answers a plain request — the
// no-wedge check after every chaos run.
func requireAlive(t *testing.T, addr string) {
	t.Helper()
	status, _, err := rawGet(addr, "/obj/0", 2*time.Second)
	if err != nil {
		t.Fatalf("post-chaos probe failed: %v", err)
	}
	if status != 200 {
		t.Fatalf("post-chaos probe got %d, want 200", status)
	}
}

// requireWatchdogClean asserts no server loop is currently stalled.
func requireWatchdogClean(t *testing.T, wd *overload.Watchdog) {
	t.Helper()
	if st := wd.Stats(); st.Active != 0 {
		t.Errorf("watchdog reports %d loops still stalled (stalls=%d max=%v)",
			st.Active, st.Stalls, st.MaxStallAge)
	}
}

func mustScenario(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	sc, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestChaosBandwidthSweepRegimes is the paper's Figures 5–6 on real
// sockets: both servers, three emulated link rates, goodput must switch
// from link-bound to CPU-bound, and every live point is cross-checked
// against the discrete-event prediction.
func TestChaosBandwidthSweepRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	seed := chaosSeed(t)
	sweep := []string{"bw-100mbit", "bw-200mbit", "bw-1gbit"}

	// The cross-check tolerance: live loadgen over loopback sockets
	// versus the idealized discrete-event model. Sleep overshoot on the
	// pinned service time, scheduler noise under -race, and TCP
	// buffering all land inside this budget; calibration drift beyond it
	// means the emulator and the simulator have diverged.
	const driftTolerance = 0.40

	for _, kind := range []string{"nio", "mt"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			base := mustScenario(t, sweep[0])
			srv := startChaosServer(t, kind, chaosStore(base.ObjectBytes), base.HandlerDelay)
			defer srv.stop()
			dumpRingOnFailure(t, "chaos-sweep-"+kind, srv.pl)

			goodput := make(map[string]float64, len(sweep))
			for _, name := range sweep {
				sc := mustScenario(t, name)
				out, err := scenario.Run(sc, srv.addr, seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				pred := scenario.Predict(sc, 1)
				drift := pred.Drift(out.GoodputBps())
				t.Logf("%s/%s: live=%.0f B/s predicted=%.0f B/s drift=%.1f%% (tolerance %.0f%%) replies/s=%.0f\n%s",
					kind, name, out.GoodputBps(), pred.BytesPerSec, drift*100,
					driftTolerance*100, out.Load.RepliesPerSec, out.Net)
				if drift > driftTolerance {
					t.Errorf("%s: live goodput %.0f B/s drifted %.1f%% from predicted %.0f B/s",
						name, out.GoodputBps(), drift*100, pred.BytesPerSec)
				}
				if out.Load.Replies == 0 {
					t.Fatalf("%s: no replies", name)
				}
				if out.Load.UnreachableErrors != 0 {
					t.Errorf("%s: %d unreachable errors on an emulated loopback link",
						name, out.Load.UnreachableErrors)
				}
				goodput[name] = out.GoodputBps()
				requireAlive(t, srv.addr)
			}
			requireWatchdogClean(t, srv.wd)

			g100, g200, g1g := goodput["bw-100mbit"], goodput["bw-200mbit"], goodput["bw-1gbit"]
			if !(g100 < g200 && g200 < g1g) {
				t.Errorf("regime ordering violated: 100mbit=%.0f 200mbit=%.0f 1gbit=%.0f", g100, g200, g1g)
			}
			// Link-bound: the constrained links carry goodput near their
			// cap (closed-loop RTT keeps it slightly under).
			cap100 := experiments.Mbit(100) / 10
			if g100 < 0.60*cap100 || g100 > 1.15*cap100 {
				t.Errorf("100mbit goodput %.0f does not track the link cap %.0f", g100, cap100)
			}
			// CPU-bound: with the link opened up, goodput must sit near
			// the pinned compute ceiling and far below the link cap.
			sc := mustScenario(t, "bw-1gbit")
			cpuCeiling := float64(sc.ObjectBytes) / sc.HandlerDelay.Seconds()
			cap1g := experiments.Mbit(1000) / 10
			if g1g > 0.75*cap1g {
				t.Errorf("1gbit goodput %.0f is link-bound (cap %.0f); regime split lost", g1g, cap1g)
			}
			if g1g < 0.50*cpuCeiling || g1g > 1.25*cpuCeiling {
				t.Errorf("1gbit goodput %.0f does not track the CPU ceiling %.0f", g1g, cpuCeiling)
			}
		})
	}
}

// TestChaosFaultScenariosSurvive runs the stochastic-fault scenarios —
// segment loss, jitter storm, reorder burst — against both servers:
// replies must keep flowing with honest error taxonomy, the injected
// fault must demonstrably have fired, and the server must come out
// unwedged.
func TestChaosFaultScenariosSurvive(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	seed := chaosSeed(t)

	for _, kind := range []string{"nio", "mt"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			base := mustScenario(t, "loss-1pct")
			srv := startChaosServer(t, kind, chaosStore(base.ObjectBytes), base.HandlerDelay)
			defer srv.stop()
			dumpRingOnFailure(t, "chaos-faults-"+kind, srv.pl)

			for _, name := range []string{"loss-1pct", "jitter-storm", "reorder-burst"} {
				sc := mustScenario(t, name)
				out, err := scenario.Run(sc, srv.addr, seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				t.Logf("%s/%s: replies/s=%.0f goodput=%.0f B/s timeouts=%d resets=%d unreachable=%d\n%s",
					kind, name, out.Load.RepliesPerSec, out.GoodputBps(),
					out.Load.TimeoutErrors, out.Load.ResetErrors,
					out.Load.UnreachableErrors, out.Net)
				if out.Load.Replies == 0 {
					t.Errorf("%s: no replies survived the link", name)
				}
				switch name {
				case "loss-1pct":
					if out.Net.Down.Lost == 0 {
						t.Errorf("%s: loss never fired: %s", name, out.Net.Down)
					}
				case "jitter-storm":
					if out.Net.Down.DelayInjected == 0 {
						t.Errorf("%s: no delay injected: %s", name, out.Net.Down)
					}
				case "reorder-burst":
					if out.Net.Down.Reordered == 0 {
						t.Errorf("%s: reordering never fired: %s", name, out.Net.Down)
					}
				}
				requireAlive(t, srv.addr)
			}
			requireWatchdogClean(t, srv.wd)
		})
	}
}

// TestChaosScenarioDeterministic is the acceptance criterion made
// executable: the same seed must replay byte-identical link behaviour.
// It asserts at two levels — the decision stream itself, and a live
// fixed-size transfer through two independent proxies, whose
// deterministic link stats (segments, losses, reorders, injected
// delay) must match exactly.
func TestChaosScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	seed := chaosSeed(t)
	sc := mustScenario(t, "loss-1pct")

	// Level 1: the decision stream for every connection the scenario
	// would open, replayed twice.
	for conn := 0; conn < sc.Clients; conn++ {
		for _, dir := range []faultline.Direction{faultline.DirUp, faultline.DirDown} {
			a := faultline.DecisionTrace(sc.Link(), faultline.StreamSeed(seed, conn, dir), 256)
			b := faultline.DecisionTrace(sc.Link(), faultline.StreamSeed(seed, conn, dir), 256)
			if a != b {
				t.Fatalf("conn %d %v: decision trace not reproducible", conn, dir)
			}
		}
	}

	// Level 2: a fixed HTTP workload through two fresh proxies.
	srv := startChaosServer(t, "nio", chaosStore(sc.ObjectBytes), 0)
	defer srv.stop()

	run := func() string {
		proxy, err := faultline.New(faultline.Config{
			Upstream: srv.addr, Seed: seed, Plan: sc.Plan(),
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		for i := 0; i < 10; i++ {
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(probeChaosRequest); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			resp, err := http.ReadResponse(r, nil)
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("response %d: status %d", i, resp.StatusCode)
			}
		}
		conn.Close()
		proxy.Close() // waits for the pumps, so the counters are final
		st := proxy.Stats()
		if st.Down.Overflows != 0 {
			t.Fatalf("unexpected queue overflow in a fixed transfer: %s", st.Down)
		}
		return st.Down.String()
	}
	a, b := run(), run()
	t.Logf("deterministic link stats: %s", a)
	if a != b {
		t.Fatalf("same seed, same transfer, different link behaviour:\n run1 %s\n run2 %s", a, b)
	}
}

var probeChaosRequest = []byte("GET /obj/0 HTTP/1.1\r\nHost: sut\r\nUser-Agent: chaos/1.0\r\n\r\n")

// TestChaosConditionalRequestsThroughLossyLink drives the ETag/304
// revalidation path (PR 2) through a lossy, reordering link for the
// first time: browser-cache clients against a disk-backed docroot, on
// both servers. Revalidation must keep earning 304s and the error
// taxonomy must stay clean even when the link misbehaves.
func TestChaosConditionalRequestsThroughLossyLink(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	seed := chaosSeed(t)

	cfg := surge.DefaultConfig()
	cfg.NumObjects = 48
	cfg.MaxObjectBytes = 64 << 10
	set, err := surge.BuildObjectSet(cfg, dist.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := docroot.MaterializeSurge(dir, set, cfg.MaxObjectBytes, 32); err != nil {
		t.Fatal(err)
	}

	lossyReordering := faultline.Link{
		Delay:       time.Millisecond,
		LossProb:    0.02,
		LossPenalty: 20 * time.Millisecond,
		ReorderProb: 0.05,
	}

	for _, kind := range []string{"nio", "mt"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			root, err := docroot.New(docroot.Config{
				Dir: dir, CacheBytes: 1 << 20, MemLimit: 64 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			var addr string
			var notModified func() int64
			switch kind {
			case "nio":
				ccfg := core.DefaultConfig(nil)
				ccfg.Docroot = root
				srv, err := core.NewServer(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Start(); err != nil {
					t.Fatal(err)
				}
				defer srv.Stop()
				addr, notModified = srv.Addr(), func() int64 { return srv.Stats().NotModified }
			case "mt":
				mcfg := mtserver.DefaultConfig(nil)
				mcfg.Threads = 8
				mcfg.Docroot = root
				srv, err := mtserver.NewServer(mcfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Start(); err != nil {
					t.Fatal(err)
				}
				defer srv.Stop()
				addr, notModified = srv.Addr(), func() int64 { return srv.Stats().NotModified }
			}

			proxy, err := faultline.New(faultline.Config{
				Upstream: addr,
				Seed:     seed,
				Plan:     faultline.LinkPlan(faultline.Link{}, lossyReordering),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			dumpNetStatsOnFailure(t, "chaos-conditional-"+kind, proxy.Stats)

			res, err := loadgen.Run(loadgen.Options{
				Addr:               proxy.Addr(),
				Clients:            4,
				Warmup:             150 * time.Millisecond,
				Duration:           1200 * time.Millisecond,
				Timeout:            10 * time.Second,
				ThinkScale:         0.01,
				Seed:               seed,
				Workload:           cfg,
				Objects:            set,
				RevalidateFraction: 0.6,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := proxy.Stats()
			t.Logf("%s: replies=%d 304s=%d timeouts=%d resets=%d unreachable=%d server304=%d\n%s",
				kind, res.Replies, res.NotModified, res.TimeoutErrors,
				res.ResetErrors, res.UnreachableErrors, notModified(), st)

			if res.Replies == 0 {
				t.Fatal("no replies through the lossy link")
			}
			if res.NotModified == 0 {
				t.Error("revalidation earned no 304s through the lossy link")
			}
			if notModified() == 0 {
				t.Error("server reports no conditional hits")
			}
			if res.UnreachableErrors != 0 {
				t.Errorf("%d unreachable errors on an emulated link", res.UnreachableErrors)
			}
			if res.TimeoutErrors != 0 {
				t.Errorf("%d client watchdog timeouts with a 10s budget", res.TimeoutErrors)
			}
			if st.Down.Lost == 0 && st.Down.Reordered == 0 {
				t.Errorf("link faults never fired: %s", st.Down)
			}
		})
	}
}
