// Chaos: the paper's bandwidth-bounded figures on real sockets. Both
// live servers run behind the deterministic link emulator while the
// scenario harness sweeps the emulated link from the scaled 100 Mbit
// cap to the scaled gigabit cap, printing live goodput next to the
// discrete-event prediction for each point.
//
//	go run ./examples/chaos
//
// The table is the regime split of Figures 5–6: on the constrained
// links goodput tracks the link cap (and the two architectures tie —
// the wire is the bottleneck, not the server); once the link opens up,
// goodput tracks the pinned CPU ceiling instead. The drift column is
// the calibration gap between the live stack and internal/simnet.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultline/scenario"
	"repro/internal/mtserver"
)

const seed = 1

// cpuPin emulates a single CPU shared by all handler threads: requests
// serialize behind one mutex and each costs a fixed service time. This
// pins the same compute ceiling on both architectures, so the sweep
// isolates the link as the only moving part.
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

func main() {
	sweep := []string{"bw-100mbit", "bw-200mbit", "bw-1gbit"}
	base, err := scenario.ByName(sweep[0])
	if err != nil {
		log.Fatal(err)
	}
	store := core.MapStore{"/obj/0": make([]byte, base.ObjectBytes)}

	fmt.Printf("%d KiB objects, %v pinned service time, %d closed-loop clients, seed %d\n\n",
		base.ObjectBytes>>10, base.HandlerDelay, base.Clients, seed)
	fmt.Printf("%-8s %-12s %12s %12s %8s %10s\n",
		"server", "scenario", "live MB/s", "pred MB/s", "drift", "replies/s")

	for _, kind := range []string{"nio", "mt"} {
		addr, stop := startServer(kind, store, base.HandlerDelay)
		for _, name := range sweep {
			sc, err := scenario.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			out, err := scenario.Run(sc, addr, seed)
			if err != nil {
				log.Fatal(err)
			}
			pred := scenario.Predict(sc, 1)
			fmt.Printf("%-8s %-12s %12.2f %12.2f %7.1f%% %10.0f\n",
				kind, name, out.GoodputBps()/1e6, pred.BytesPerSec/1e6,
				pred.Drift(out.GoodputBps())*100, out.Load.RepliesPerSec)
		}
		stop()
	}
}

func startServer(kind string, store core.Store, svc time.Duration) (string, func()) {
	pin := &cpuPin{d: svc}
	switch kind {
	case "nio":
		cfg := core.DefaultConfig(store)
		cfg.Shards = 1
		cfg.AcceptFanout = true
		cfg.HandlerFault = pin.fault
		srv, err := core.NewServer(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		return srv.Addr(), func() { srv.Stop() }
	default:
		cfg := mtserver.DefaultConfig(store)
		cfg.Threads = 16
		cfg.HandlerFault = pin.fault
		srv, err := mtserver.NewServer(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		return srv.Addr(), func() { srv.Stop() }
	}
}
