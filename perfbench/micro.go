package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/docroot"
	"repro/internal/httpwire"
	"repro/internal/obs"
	"repro/internal/reactor"
)

// microDrivers times single calls into each layer on the workload's own
// stream and records the per-call medians.
func microDrivers(lt *layerTrace, b *bench, stream []int32, store *core.SurgeStore, root *docroot.Root) error {
	put := func(name string, v float64, unit string) { lt.micro[name] = metric{Value: v, Unit: unit} }
	reqs := b.w.requests(b.set.Len())
	paths := make([]string, microReqs)
	for i := range paths {
		paths[i] = fmt.Sprintf("/obj/%d", stream[i])
	}

	// httpwire: requests parsed in the batches the workload sends them,
	// a fresh parser state per connection for churn.
	var batches [][]byte
	for i := 0; i < microReqs; i += b.w.depth {
		var batch []byte
		for j := i; j < i+b.w.depth && j < microReqs; j++ {
			batch = append(batch, reqs[stream[j]]...)
		}
		batches = append(batches, batch)
	}
	var p httpwire.Parser
	var parsed []*httpwire.Request
	m0 := mallocs()
	t := time.Now()
	n := 0
	for _, batch := range batches {
		var err error
		if parsed, err = p.Feed(parsed[:0], batch); err != nil {
			return err
		}
		n += len(parsed)
		if b.w.fresh {
			p.Reset()
		}
	}
	el := time.Since(t)
	if n != microReqs {
		return fmt.Errorf("parser produced %d of %d requests", n, microReqs)
	}
	put("httpwire.parse_ns_per_req", float64(el.Nanoseconds())/float64(n), "ns")
	put("httpwire.allocs_per_req", float64(mallocs()-m0)/float64(n), "count")

	appendHead := func(dst []byte, size int64) []byte {
		if b.w.docroot {
			return httpwire.AppendResponseHeaderValidators(dst, 200, "application/octet-stream", size, true, `"etag"`, "Mon, 02 Jan 2006 15:04:05 GMT")
		}
		return httpwire.AppendResponseHeader(dst, 200, "application/octet-stream", size, true)
	}
	var head []byte
	t = time.Now()
	for _, id := range stream[:microReqs] {
		head = appendHead(head[:0], b.content.sizes[id])
	}
	put("httpwire.head_ns", float64(time.Since(t).Nanoseconds())/microReqs, "ns")
	heads := make([][]byte, microReqs)
	for i, id := range stream[:microReqs] {
		heads[i] = append(appendHead(nil, b.content.sizes[id]), b.content.blob[:b.content.sizes[id]]...)
	}
	var rp httpwire.RespParser
	var resps []*httpwire.Response
	t = time.Now()
	for _, r := range heads {
		var err error
		if resps, err = rp.Feed(resps[:0], r); err != nil || len(resps) != 1 {
			return fmt.Errorf("response parser: %d responses, %v", len(resps), err)
		}
	}
	put("httpwire.resp_parse_ns", float64(time.Since(t).Nanoseconds())/microReqs, "ns")

	// core: the in-memory store.
	t = time.Now()
	for _, path := range paths {
		if _, _, ok := store.Get(path); !ok {
			return fmt.Errorf("store has no %s", path)
		}
	}
	put("core.store_get_ns", float64(time.Since(t).Nanoseconds())/microReqs, "ns")

	// docroot: the stream through the cache, hits and misses timed apart.
	var hits, misses []float64
	for _, path := range paths {
		before := root.Stats().Hits
		t := time.Now()
		e, err := root.Get(path)
		d := float64(time.Since(t).Nanoseconds())
		if err != nil {
			return err
		}
		e.Release()
		if root.Stats().Hits > before {
			hits = append(hits, d)
		} else {
			misses = append(misses, d/1e3)
		}
	}
	put("docroot.hit_ratio", float64(len(hits))/microReqs, "share")
	put("docroot.get_hit_ns", median(hits), "ns")
	put("docroot.get_miss_us", median(misses), "us")

	// obs: one phase record on a shard view.
	view := obs.NewPlane(1 << 10).View(0)
	t = time.Now()
	for i := 0; i < microReqs; i++ {
		view.Record(1, obs.Parse, time.Microsecond)
	}
	put("obs.record_ns", float64(time.Since(t).Nanoseconds())/microReqs, "ns")

	// reactor: accept cycle and sendfile throughput on loopback.
	acc, err := acceptCycle(256)
	if err != nil {
		return err
	}
	put("reactor.accept_us", acc, "us")
	sf, err := sendfileRate(root, b)
	if err != nil {
		return err
	}
	put("reactor.sendfile_us_per_MiB", sf, "us")
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// acceptCycle times DialTCP4 → Accept → CloseFD, median of n.
func acceptCycle(n int) (float64, error) {
	lfd, port, err := reactor.Listen(0, 64)
	if err != nil {
		return 0, err
	}
	defer reactor.CloseFD(0, lfd)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	var us []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		cfd, _, err := reactor.DialTCP4(0, addr)
		if err != nil {
			return 0, err
		}
		for {
			fd, done, err := reactor.Accept(0, lfd)
			if err != nil {
				reactor.CloseFD(0, cfd)
				return 0, err
			}
			if fd >= 0 {
				reactor.CloseFD(0, fd)
				break
			}
			if done {
				runtime.Gosched()
			}
		}
		reactor.CloseFD(0, cfd)
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// sendfileRate sends the population's largest object to a loopback peer
// that drains it, and returns the median µs per MiB.
func sendfileRate(root *docroot.Root, b *bench) (float64, error) {
	big := 0
	for i, sz := range b.content.sizes {
		if sz > b.content.sizes[big] {
			big = i
		}
	}
	e, err := root.Get(fmt.Sprintf("/obj/%d", big))
	if err != nil {
		return 0, err
	}
	defer e.Release()
	lfd, port, err := reactor.Listen(0, 4)
	if err != nil {
		return 0, err
	}
	defer reactor.CloseFD(0, lfd)
	d, err := newDialer(fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return 0, err
	}
	cfd, err := d.dial()
	if err != nil {
		return 0, err
	}
	var sfd int
	for {
		fd, _, err := reactor.Accept(0, lfd)
		if err != nil {
			syscall.Close(cfd)
			return 0, err
		}
		if fd >= 0 {
			sfd = fd
			break
		}
		runtime.Gosched()
	}
	const reps = 16
	total := e.Size * reps
	drained := make(chan error, 1)
	go func() {
		buf := make([]byte, 256<<10)
		var got int64
		for got < total {
			n, err := readFD(cfd, buf)
			if err != nil || n == 0 {
				drained <- fmt.Errorf("sendfile peer: %d bytes, %v", got, err)
				return
			}
			got += int64(n)
		}
		drained <- nil
	}()
	var per []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		var off int64
		for off < e.Size {
			_, again, err := reactor.Sendfile(0, sfd, e.FD(), &off, int(e.Size-off))
			if err != nil {
				reactor.CloseFD(0, sfd)
				syscall.Close(cfd)
				<-drained
				return 0, err
			}
			if again {
				runtime.Gosched()
			}
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/1e3/(float64(e.Size)/(1<<20)))
	}
	err = <-drained
	reactor.CloseFD(0, sfd)
	syscall.Close(cfd)
	return median(per), err
}

// layerMetrics turns the traced run into the per-layer metrics.
func layerMetrics(rep *report, b *bench, lt *layerTrace, steal float64) {
	tg := map[string]*target{}
	for _, t := range b.targets {
		tg[t.name] = t
	}
	p50 := func(t *target) float64 { return estimate(t.rounds, func(s roundStat) float64 { return s.p50us }) }
	cpu := func(t *target) float64 { return estimate(t.rounds, func(s roundStat) float64 { return s.cpuPerReq }) }
	for _, name := range sortedKeys(lt.micro) {
		rep.add(name, lt.micro[name].Value, lt.micro[name].Unit)
	}

	// The nio chain's own spans give the reactor's wait, read and write.
	rep.add("reactor.wake_us", lt.self["nio"]["wait"], "us")
	rep.add("reactor.read_ns", lt.self["nio"]["read"]*1e3, "ns")
	kib := 0.0
	for _, id := range b.stream0[:chainReqs] {
		kib += float64(b.content.sizes[id]) / 1024
	}
	rep.add("reactor.write_ns_per_KiB", lt.self["nio"]["write"]*1e3/(kib/chainReqs), "ns")

	// Per-process counters over the untraced measured rounds.
	for _, pc := range []struct{ layer, target, kind string }{
		{"core", "nio", "nio"}, {"mtserver", "mt", "mt"}, {"proxy", "tier", "proxy"},
	} {
		t := tg[pc.target]
		var ok int64
		var ms uint64
		var cs int64
		for _, r := range t.rounds {
			ok += r.ok
			ms += r.procMallocs[pc.kind]
			cs += r.procCtxsw[pc.kind]
		}
		rep.add(pc.layer+".allocs_per_req", float64(ms)/float64(ok), "count")
		rep.add(pc.layer+".ctxsw_per_req", float64(cs)/float64(ok), "count")
		sn := lt.kids[pc.target+"+obs/"+pc.kind]
		for _, ph := range []string{"queue_wait", "parse", "handler", "write"} {
			rep.add(pc.layer+".phase."+ph+"_us", sn.PhaseP50us[ph], "us")
		}
	}
	nio := lt.kids["nio/nio"]
	share := 0.0
	if nio.BytesOut > 0 {
		share = float64(nio.SendfileBytes) / float64(nio.BytesOut)
	}
	rep.add("docroot.sendfile_share", share, "share")
	px := lt.kids["tier/proxy"]
	rep.add("proxy.relay_us", p50(tg["tier"])-p50(tg["nio"]), "us")
	rep.add("proxy.upstream_reuse_ratio", float64(px.UpstreamReuses)/float64(px.UpstreamReuses+px.UpstreamDials), "share")

	// Generator, tracing overhead and the span decomposition per target.
	for _, name := range []string{"nio", "mt", "tier"} {
		t := tg[name]
		overhead := cpu(tg[name+"+obs"])/cpu(t) - 1
		rep.add("obs.overhead."+name, overhead, "share")
		fmt.Fprintf(rep.w, "obs.overhead.%s within the 5%% tracing budget: %v\n", name, overhead <= 0.05)
		rep.add("client.p99_us."+name, quantile(t.lat, 0.99), "us")
		rep.add("client.samples."+name, float64(len(t.lat)), "count")

		traced := p50(tg[name+"+obs"])
		sum := 0.0
		for _, layer := range lt.layers[name] {
			v := lt.self[name][layer]
			sum += v
			rep.add("span."+name+"."+layer+"_us", v, "us")
		}
		rep.add("span."+name+".remainder_us", traced-sum, "us")
		rep.add("span."+name+".traced_p50_us", traced, "us")
		fmt.Fprintf(rep.w, "span.%s self times sum to %.2f us; untraced p50 %.2f us, traced p50 %.2f us\n", name, sum, p50(t), traced)
	}
	clientCPU, busy := clientLoad(b)
	rep.add("client.cpu_us_per_req", clientCPU, "us")
	rep.add("client.busy_frac", busy, "share")
	rep.add("host.steal_frac", steal, "share")
}

// clientLoad is the generator's CPU per validated reply and the share of
// the CPUs it may use that it kept busy, over the untraced measured
// rounds.
func clientLoad(b *bench) (cpuPerReq, busy float64) {
	var cpu, ok int64
	var wall float64
	for _, t := range b.targets {
		if strings.HasSuffix(t.name, "+obs") {
			continue
		}
		for _, r := range t.rounds {
			cpu += r.clientCPUus
			ok += r.ok
			wall += r.elapsed.Seconds()
		}
	}
	return float64(cpu) / float64(ok), float64(cpu) / 1e6 / (wall * float64(runtime.NumCPU()))
}
