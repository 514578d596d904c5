package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The generator speaks HTTP/1.1 over blocking sockets with its own
// response reader, so a bug in the program's httpwire cannot hide
// behind the same bug in the checker. A worker's thread sleeps in the
// kernel while it waits, as a client that waits for its reply does.

const ioTimeout = 5 * time.Second

// errHarness marks a generator-side fault (EADDRNOTAVAIL, EMFILE): the
// run is void, not the server's failure.
var errHarness = errors.New("generator fault")

// content is what every response must carry: object sizes by id and the
// blob every body is a prefix of.
type content struct {
	sizes []int64
	blob  []byte
}

// dialer opens blocking TCP connections to one address.
type dialer struct{ sa syscall.SockaddrInet4 }

func newDialer(addr string) (dialer, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return dialer{}, err
	}
	ip := net.ParseIP(host).To4()
	p, err := strconv.Atoi(port)
	if ip == nil || err != nil {
		return dialer{}, fmt.Errorf("bad IPv4 address %q", addr)
	}
	var d dialer
	copy(d.sa.Addr[:], ip)
	d.sa.Port = p
	return d, nil
}

// dial returns a connected blocking socket. A refused or reset connect
// is the server's failure (err wraps nothing); running out of local
// ports or descriptors wraps errHarness.
func (d dialer) dial() (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, fmt.Errorf("%w: socket: %v", errHarness, err)
	}
	_ = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) // latency only
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	_ = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv) // without it a hung server hangs the run
	_ = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv)
	for {
		err = syscall.Connect(fd, &d.sa)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		syscall.Close(fd)
		if err == syscall.EADDRNOTAVAIL || err == syscall.EMFILE || err == syscall.ENFILE {
			return -1, fmt.Errorf("%w: connect: %v", errHarness, err)
		}
		return -1, fmt.Errorf("connect: %w", err)
	}
	return fd, nil
}

func readFD(fd int, buf []byte) (int, error) {
	for {
		n, err := syscall.Read(fd, buf)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			return 0, errors.New("read timeout")
		}
		return n, err
	}
}

func writeAll(fd int, b []byte) error {
	for len(b) > 0 {
		n, err := syscall.Write(fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// respReader validates a stream of HTTP/1.1 responses: status 200,
// Content-Length equal to the object's size, and every body byte equal
// to the content blob's prefix.
type respReader struct {
	c      *content
	head   []byte
	inBody bool
	want   int64 // size of the object being received
	off    int64 // body bytes checked so far
}

var (
	crlf2    = []byte("\r\n\r\n")
	status   = []byte("HTTP/1.1 200 ")
	clHeader = []byte("\r\ncontent-length:")
)

// feed consumes data for the responses whose object ids next() yields in
// order and calls done after each complete one. It returns an error on
// the first byte that breaks the contract.
func (r *respReader) feed(data []byte, next func() int32, done func()) error {
	for len(data) > 0 {
		if !r.inBody {
			start := len(r.head) - 3
			if start < 0 {
				start = 0
			}
			r.head = append(r.head, data...)
			i := bytes.Index(r.head[start:], crlf2)
			if i < 0 {
				if len(r.head) > 8<<10 {
					return errors.New("response head too long")
				}
				return nil
			}
			end := start + i + 4
			rest := len(r.head) - end
			data = data[len(data)-rest:]
			head := r.head[:end]
			id := next()
			if id < 0 {
				return errors.New("response with no request outstanding")
			}
			r.want = r.c.sizes[id]
			if err := r.checkHead(head); err != nil {
				return err
			}
			r.head = r.head[:0]
			r.inBody, r.off = true, 0
		}
		n := int64(len(data))
		if left := r.want - r.off; n > left {
			n = left
		}
		if !bytes.Equal(data[:n], r.c.blob[r.off:r.off+n]) {
			return fmt.Errorf("body bytes differ at offset %d..%d", r.off, r.off+n)
		}
		r.off += n
		data = data[n:]
		if r.off == r.want {
			r.inBody = false
			done()
		}
	}
	return nil
}

func (r *respReader) checkHead(head []byte) error {
	if !bytes.HasPrefix(head, status) {
		line, _, _ := bytes.Cut(head, []byte("\r\n"))
		return fmt.Errorf("status %q", line)
	}
	lower := bytes.ToLower(head)
	i := bytes.Index(lower, clHeader)
	if i < 0 {
		return errors.New("no Content-Length")
	}
	v, _, _ := bytes.Cut(lower[i+len(clHeader):], []byte("\r\n"))
	cl, err := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
	if err != nil || cl != r.want {
		return fmt.Errorf("Content-Length %q, want %d", bytes.TrimSpace(v), r.want)
	}
	return nil
}

func (r *respReader) reset() { r.head, r.inBody, r.off = r.head[:0], false, 0 }

// tally is what one worker saw in one round.
type tally struct {
	attempted, ok int64
	latUs         []float64
	errs          []error
}

func (t *tally) fail(n int64, err error) {
	t.attempted += n
	if len(t.errs) < 4 {
		t.errs = append(t.errs, err)
	}
}

// keepAlive is one persistent connection holding up to depth requests
// in flight: pingpong uses depth 1, pipeline depth 16.
type keepAlive struct {
	d      dialer
	reqs   [][]byte
	stream []int32
	depth  int
	fd     int
	rd     respReader
	buf    []byte
	wbuf   []byte
	ids    []int32 // in-flight object ids, oldest first
	sent   []time.Time
}

func newKeepAlive(d dialer, c *content, reqs [][]byte, stream []int32, depth int) *keepAlive {
	return &keepAlive{d: d, reqs: reqs, stream: stream, depth: depth, fd: -1,
		rd: respReader{c: c}, buf: make([]byte, 64<<10)}
}

func (k *keepAlive) close() {
	if k.fd >= 0 {
		syscall.Close(k.fd)
		k.fd = -1
	}
}

// round runs at most n requests from stream position pos until the
// deadline, then lets the in-flight ones finish. A broken connection fails its
// in-flight requests and ends the round for this worker.
func (k *keepAlive) round(pos, n int, deadline time.Time) (t tally, harness error) {
	if k.fd < 0 {
		fd, err := k.d.dial()
		if errors.Is(err, errHarness) {
			return t, err
		}
		if err != nil {
			t.fail(1, err)
			return t, nil
		}
		k.fd = fd
		k.rd.reset()
	}
	k.ids, k.sent = k.ids[:0], k.sent[:0]
	now := time.Now()
	sent := 0
	send := func() {
		id := k.stream[pos%len(k.stream)]
		pos++
		sent++
		k.wbuf = append(k.wbuf, k.reqs[id]...)
		k.ids = append(k.ids, id)
		k.sent = append(k.sent, now)
	}
	k.wbuf = k.wbuf[:0]
	for i := 0; i < k.depth && i < n; i++ {
		send()
	}
	head := 0 // index into ids of the oldest request without a response head
	doneIdx := 0
	next := func() int32 {
		if head >= len(k.ids) {
			return -1
		}
		head++
		return k.ids[head-1]
	}
	var doneAt time.Time
	open := true
	complete := func() {
		t.ok++
		t.attempted++
		t.latUs = append(t.latUs, float64(doneAt.Sub(k.sent[doneIdx]).Nanoseconds())/1e3)
		doneIdx++
		if open && sent < n && !doneAt.After(deadline) {
			send()
		} else {
			open = false
		}
	}
	for doneIdx < len(k.ids) {
		if len(k.wbuf) > 0 {
			if err := writeAll(k.fd, k.wbuf); err != nil {
				return k.broken(t, doneIdx, err), nil
			}
			k.wbuf = k.wbuf[:0]
		}
		got, err := readFD(k.fd, k.buf)
		if err == nil && got == 0 {
			err = errors.New("connection closed mid-response")
		}
		if err != nil {
			return k.broken(t, doneIdx, err), nil
		}
		doneAt = time.Now()
		now = doneAt
		if err := k.rd.feed(k.buf[:got], next, complete); err != nil {
			return k.broken(t, doneIdx, err), nil
		}
	}
	// Compact the in-flight bookkeeping for the next round.
	k.ids, k.sent = k.ids[:0], k.sent[:0]
	return t, nil
}

func (k *keepAlive) broken(t tally, doneIdx int, err error) tally {
	t.fail(int64(len(k.ids)-doneIdx), err)
	k.close()
	return t
}

// fresh sends each request on a new connection with Connection: close
// (the churn workload) and times connect to last body byte.
type fresh struct {
	d      dialer
	reqs   [][]byte
	stream []int32
	rd     respReader
	buf    []byte
}

func (f *fresh) round(pos, n int, deadline time.Time) (t tally, harness error) {
	for i := 0; i < n; i++ {
		start := time.Now()
		if start.After(deadline) {
			return t, nil
		}
		id := f.stream[pos%len(f.stream)]
		pos++
		fd, err := f.d.dial()
		if errors.Is(err, errHarness) {
			return t, err
		}
		if err != nil {
			t.fail(1, err)
			return t, nil
		}
		if err := f.one(fd, id, start, &t); err != nil {
			t.fail(1, err)
			return t, nil
		}
	}
	return t, nil
}

func (f *fresh) one(fd int, id int32, start time.Time, t *tally) error {
	defer syscall.Close(fd)
	if err := writeAll(fd, f.reqs[id]); err != nil {
		return err
	}
	f.rd.reset()
	got := false
	asked := false
	next := func() int32 {
		if asked {
			return -1
		}
		asked = true
		return id
	}
	for {
		n, err := readFD(fd, f.buf)
		if err != nil {
			return err
		}
		if n == 0 {
			if !got {
				return errors.New("connection closed mid-response")
			}
			return nil // the server closed, as asked
		}
		if got {
			return errors.New("bytes after a Connection: close response")
		}
		err = f.rd.feed(f.buf[:n], next, func() {
			got = true
			t.ok++
			t.attempted++
			t.latUs = append(t.latUs, float64(time.Since(start).Nanoseconds())/1e3)
		})
		if err != nil {
			return err
		}
	}
}

// roundWorker is a keepAlive or fresh worker.
type roundWorker interface {
	round(pos, n int, deadline time.Time) (tally, error)
}

// runWorkers runs every worker for one round of at most n requests
// concurrently and merges their tallies.
func runWorkers(ws []roundWorker, pos, n int, deadline time.Time) (tally, error) {
	res := make([]tally, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w roundWorker) {
			defer wg.Done()
			res[i], errs[i] = w.round(pos, n, deadline)
		}(i, w)
	}
	wg.Wait()
	var all tally
	for i, r := range res {
		if errs[i] != nil {
			return all, errs[i]
		}
		all.attempted += r.attempted
		all.ok += r.ok
		all.latUs = append(all.latUs, r.latUs...)
		all.errs = append(all.errs, r.errs...)
	}
	return all, nil
}
