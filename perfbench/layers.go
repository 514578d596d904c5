package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/docroot"
	"repro/internal/httpwire"
	"repro/internal/obs"
	"repro/internal/reactor"
	"repro/internal/surge"
)

// The traced run times calls into each layer's public functions from the
// benchmark's own code. Chains replay the workload's stream over a
// loopback socket, one request at a time, through the path each server
// takes: Poller.Wait → reactor.Read → Parser.Feed → Store.Get/Root.Get →
// AppendResponseHeader* → reactor.Write/Sendfile → View.Record. Every
// call gets one span; spans stay in memory and are written out at the
// end. Micro drivers time single calls the chains do not isolate.

const (
	chainReqs = 1500 // requests per chain
	microReqs = 4096 // calls per micro driver
)

// span is one timed call. parent names the enclosing span of the same
// request ("" for the request's root span).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, req int, start int64) int64 {
	end := t.now()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: "client", Start: start, End: end})
	return end
}

// layerTrace is what the drivers measured.
type layerTrace struct {
	self   map[string]map[string]float64 // chain → layer → p50 self time (µs)
	layers map[string][]string           // chain → layer names in call order
	micro  map[string]metric
	kids   map[string]snapshot // traced and untraced final-round snapshots by target/process
}

// traceLayers runs the layer drivers and snapshots the servers while
// they are still up.
func traceLayers(b *bench, workdir string) (*layerTrace, error) {
	lt := &layerTrace{self: map[string]map[string]float64{}, layers: map[string][]string{},
		micro: map[string]metric{}, kids: map[string]snapshot{}}
	for _, t := range b.targets {
		for _, c := range t.procs {
			sn, err := c.snap()
			if err != nil {
				return nil, err
			}
			lt.kids[t.name+"/"+c.kind] = sn
		}
	}
	dir := b.dir
	if dir == "" {
		d, err := materialize(workdir)
		if err != nil {
			return nil, err
		}
		dir = d
	}
	root, err := docroot.Open(dir, cacheBytes)
	if err != nil {
		return nil, err
	}
	stream := b.stream0
	store := core.NewSurgeStore(b.set, surge.DefaultConfig().MaxObjectBytes, contentSeed)
	var tierBackend *child
	for _, t := range b.targets {
		if t.name == "tier" {
			tierBackend = t.procs[1]
		}
	}

	tr := &tracer{epoch: time.Now()}
	for _, chain := range []string{"nio", "mt", "tier"} {
		var h handler = storeHandler{store}
		if b.w.docroot {
			h = rootHandler{root}
		}
		backend := ""
		if chain == "tier" {
			backend = tierBackend.addr
			tierBackend.direct += chainReqs
		}
		spans, err := runChain(chain, h, backend, stream, b.content, tr.epoch)
		if err != nil {
			return nil, fmt.Errorf("%s chain: %w", chain, err)
		}
		tr.spans = append(tr.spans, spans...)
		lt.self[chain], lt.layers[chain] = selfTimes(spans)
	}
	if err := writeSpans(filepath.Join(filepath.Dir(workdir), "spans-"+b.w.name+".jsonl"), tr.spans); err != nil {
		return nil, err
	}
	if err := microDrivers(lt, b, stream, store, root); err != nil {
		return nil, err
	}
	return lt, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes gives each layer's p50 self time in µs: its span duration
// minus the part of it that child spans cover. Only the root has
// children here.
func selfTimes(spans []span) (map[string]float64, []string) {
	byReq := map[int][]span{}
	var order []string
	seen := map[string]bool{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
		if !seen[s.Name] {
			seen[s.Name] = true
			order = append(order, s.Name)
		}
	}
	samples := map[string][]float64{}
	for _, ss := range byReq {
		var root span
		var kids []span
		for _, s := range ss {
			if s.Parent == "" {
				root = s
			} else {
				kids = append(kids, s)
			}
		}
		covered := int64(0)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := root.Start
		for _, k := range kids {
			s, e := max(k.Start, cur), min(k.End, root.End)
			if e > s {
				covered += e - s
				cur = e
			}
			samples[k.Name] = append(samples[k.Name], float64(k.End-k.Start)/1e3)
		}
		samples[root.Name] = append(samples[root.Name], float64(root.End-root.Start-covered)/1e3)
	}
	out := map[string]float64{}
	for name, v := range samples {
		out[name] = median(v)
	}
	return out, order
}

// handler produces the response for one parsed request, recording its
// own spans.
type handler interface {
	serve(tr *tracer, req int, path string, out []byte) ([]byte, *docroot.Entry, error)
}

type storeHandler struct{ s core.Store }

func (h storeHandler) serve(tr *tracer, req int, path string, out []byte) ([]byte, *docroot.Entry, error) {
	t := tr.now()
	body, ctype, ok := h.s.Get(path)
	t = tr.add("handler", req, t)
	if !ok {
		return nil, nil, fmt.Errorf("store has no %s", path)
	}
	out = httpwire.AppendResponseHeader(out, 200, ctype, int64(len(body)), true)
	out = append(out, body...)
	tr.add("head", req, t)
	return out, nil, nil
}

type rootHandler struct{ r *docroot.Root }

func (h rootHandler) serve(tr *tracer, req int, path string, out []byte) ([]byte, *docroot.Entry, error) {
	t := tr.now()
	e, err := h.r.Get(path)
	t = tr.add("handler", req, t)
	if err != nil {
		return nil, nil, err
	}
	out = httpwire.AppendResponseHeaderValidators(out, 200, e.ContentType, e.Size, true, e.ETag, e.LastModified)
	if body := e.Body(); body != nil {
		out = append(out, body...)
		e.Release()
		e = nil
	}
	tr.add("head", req, t)
	return out, e, nil
}

// runChain drives chainReqs requests of stream through one server
// chain. The client (root span) runs on the calling goroutine; the
// server side runs on its own locked thread. With a backend address the
// chain relays to it instead of calling h, as the proxy does.
func runChain(chain string, h handler, backend string, stream []int32, c *content, epoch time.Time) ([]span, error) {
	lfd, port, err := reactor.Listen(0, 16)
	if err != nil {
		return nil, err
	}
	defer reactor.CloseFD(0, lfd)
	d, err := newDialer(fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, err
	}
	cfd, err := d.dial()
	if err != nil {
		return nil, err
	}
	defer syscall.Close(cfd)
	var sfd int
	for {
		fd, done, err := reactor.Accept(0, lfd)
		if err != nil {
			return nil, err
		}
		if fd >= 0 {
			sfd = fd
			break
		}
		if done {
			time.Sleep(time.Millisecond)
		}
	}
	defer reactor.CloseFD(0, sfd)

	var up *upstream
	if backend != "" {
		if up, err = dialUpstream(backend); err != nil {
			return nil, err
		}
		defer reactor.CloseFD(0, up.fd)
	}

	t0 := make([]atomic.Int64, chainReqs) // client write instants, shared with the server side
	srvSpans := make(chan []span, 1)
	srvErr := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tr := &tracer{epoch: epoch}
		err := serveChain(chain, sfd, h, up, tr, t0)
		srvSpans <- tr.spans
		srvErr <- err
	}()

	tr := &tracer{epoch: epoch}
	reqs := workload{}.requests(len(c.sizes))
	rd := respReader{c: c}
	buf := make([]byte, 64<<10)
	var cerr error
	for i := 0; i < chainReqs && cerr == nil; i++ {
		id := stream[i%len(stream)]
		start := tr.now()
		t0[i].Store(start)
		if cerr = writeAll(cfd, reqs[id]); cerr != nil {
			break
		}
		got := false
		asked := false
		for !got && cerr == nil {
			var n int
			n, cerr = readFD(cfd, buf)
			if cerr == nil && n == 0 {
				cerr = errors.New("chain closed")
			}
			if cerr == nil {
				cerr = rd.feed(buf[:n], func() int32 {
					if asked {
						return -1
					}
					asked = true
					return id
				}, func() { got = true })
			}
		}
		tr.spans = append(tr.spans, span{Name: "client", Req: i, Start: start, End: tr.now()})
	}
	if cerr != nil {
		syscall.Shutdown(cfd, syscall.SHUT_RDWR)
	}
	spans := append(<-srvSpans, tr.spans...)
	if err := <-srvErr; err != nil {
		return nil, err
	}
	return spans, cerr
}

// serveChain is the server side: parked wait, read, parse, handle,
// write, record, per request. The mt chain blocks in read(2) instead of
// parking in epoll, as the thread pool's workers do.
func serveChain(chain string, fd int, h handler, up *upstream, tr *tracer, t0 []atomic.Int64) error {
	var poller *reactor.Poller
	if chain == "mt" {
		if err := syscall.SetNonblock(fd, false); err != nil {
			return err
		}
	} else {
		p, err := reactor.NewPoller(8)
		if err != nil {
			return err
		}
		defer p.Close()
		if err := p.Add(fd, true, false); err != nil {
			return err
		}
		poller = p
	}
	plane := obs.NewPlane(1 << 10)
	view := plane.View(0)
	conn := plane.NextConnID()
	var parser httpwire.Parser
	var parsed []*httpwire.Request
	buf := make([]byte, 16<<10)
	var out []byte
	for i := range t0 {
		var n int
		if poller != nil {
			if _, err := poller.Wait(-1); err != nil {
				return err
			}
			t := tr.add("wait", i, t0[i].Load())
			m, eof, again, err := reactor.Read(0, fd, buf)
			if err != nil || eof || again {
				return fmt.Errorf("read: n=%d eof=%v again=%v err=%v", m, eof, again, err)
			}
			n = m
			tr.add("read", i, t)
		} else {
			m, err := readFD(fd, buf)
			if err != nil || m == 0 {
				return fmt.Errorf("blocking read: %d %v", m, err)
			}
			n = m
			tr.add("read", i, t0[i].Load()) // includes the wake-up: the thread sleeps in read(2)
		}
		t := tr.now()
		var err error
		parsed, err = parser.Feed(parsed[:0], buf[:n])
		if err != nil || len(parsed) != 1 {
			return fmt.Errorf("parse: %d requests, %v", len(parsed), err)
		}
		tParse := tr.add("parse", i, t)
		var e *docroot.Entry
		if up != nil {
			out, err = up.relay(tr, i, parsed[0], out[:0])
		} else {
			out, e, err = h.serve(tr, i, parsed[0].Path, out[:0])
		}
		if err != nil {
			return err
		}
		t = tr.now()
		if err := writeOut(fd, out, e, poller == nil); err != nil {
			return err
		}
		t = tr.add("write", i, t)
		view.Record(conn, obs.Parse, time.Duration(tParse-t0[i].Load()))
		view.Record(conn, obs.WriteComplete, time.Duration(t-tParse))
		tr.add("record", i, t)
	}
	return nil
}

// writeOut writes the response head (and body) and, for an fd-only
// docroot entry, the body by sendfile.
func writeOut(fd int, out []byte, e *docroot.Entry, blocking bool) error {
	if blocking {
		if err := writeAll(fd, out); err != nil {
			return err
		}
		if e != nil {
			defer e.Release()
			_, _, err := docroot.SendfileTo(rawFD(fd), e)
			return err
		}
		return nil
	}
	for len(out) > 0 {
		n, again, err := reactor.Write(0, fd, out)
		if err != nil {
			return err
		}
		if again {
			runtime.Gosched()
		}
		out = out[n:]
	}
	if e == nil {
		return nil
	}
	defer e.Release()
	var off int64
	for off < e.Size {
		_, again, err := reactor.Sendfile(0, fd, e.FD(), &off, int(e.Size-off))
		if err != nil {
			return err
		}
		if again {
			runtime.Gosched()
		}
	}
	return nil
}

// rawFD adapts a descriptor to docroot.Writer for the blocking
// sendfile path.
type rawFD int

func (f rawFD) Write(p []byte) (int, error) {
	if err := writeAll(int(f), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f rawFD) SyscallConn() (syscall.RawConn, error) { return rawConn(f), nil }

type rawConn int

func (c rawConn) Control(fn func(uintptr)) error { fn(uintptr(c)); return nil }
func (c rawConn) Read(fn func(uintptr) bool) error {
	for !fn(uintptr(c)) {
	}
	return nil
}
func (c rawConn) Write(fn func(uintptr) bool) error {
	for !fn(uintptr(c)) {
	}
	return nil
}

// upstream is the relay chain's keep-alive connection to the backend.
type upstream struct {
	fd     int
	poller *reactor.Poller
	parser httpwire.RespParser
	resps  []*httpwire.Response
	buf    []byte
}

func dialUpstream(addr string) (*upstream, error) {
	fd, connected, err := reactor.DialTCP4(0, addr)
	if err != nil {
		return nil, err
	}
	p, err := reactor.NewPoller(4)
	if err != nil {
		reactor.CloseFD(0, fd)
		return nil, err
	}
	if err := p.Add(fd, true, !connected); err != nil {
		return nil, err
	}
	if !connected {
		if _, err := p.Wait(1000); err != nil {
			return nil, err
		}
		if err := reactor.ConnectResult(fd); err != nil {
			return nil, err
		}
		if err := p.Modify(fd, true, false); err != nil {
			return nil, err
		}
	}
	return &upstream{fd: fd, poller: p, buf: make([]byte, 64<<10)}, nil
}

func (u *upstream) relay(tr *tracer, req int, r *httpwire.Request, out []byte) ([]byte, error) {
	t := tr.now()
	head := httpwire.AppendRequestHead(nil, r.Method, r.Path, r.Proto, httpwire.ForwardHeaders(r, "1.1 perfbench", "127.0.0.1"))
	t = tr.add("forward", req, t)
	for len(head) > 0 {
		n, again, err := reactor.Write(0, u.fd, head)
		if err != nil {
			return nil, err
		}
		if again {
			runtime.Gosched()
		}
		head = head[n:]
	}
	for {
		if _, err := u.poller.Wait(-1); err != nil {
			return nil, err
		}
		n, eof, again, err := reactor.Read(0, u.fd, u.buf)
		if err != nil || eof {
			return nil, fmt.Errorf("upstream read: eof=%v %v", eof, err)
		}
		if again {
			continue
		}
		out = append(out, u.buf[:n]...)
		if u.resps, err = u.parser.Feed(u.resps[:0], u.buf[:n]); err != nil {
			return nil, err
		}
		if len(u.resps) > 0 {
			break
		}
	}
	tr.add("upstream", req, t)
	return out, nil
}
