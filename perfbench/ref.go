package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/surge"
)

// refServer is the reference the end-to-end metrics are relative to: the
// least an HTTP server can do for these requests, written on the
// standard library alone. It reads a request line and headers, and
// writes a fixed head and the object's bytes from memory. It runs in
// every round next to the targets, so a slow stretch of the host that
// stretches a target's round stretches the reference's round too, and
// their ratio holds.
type refServer struct {
	ln      net.Listener
	set     *surge.ObjectSet
	blob    []byte
	replies atomic.Int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]bool
}

func newRefServer(set *surge.ObjectSet, blob []byte) (*refServer, error) {
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &refServer{ln: ln, set: set, blob: blob, conns: map[net.Conn]bool{}}, nil
}

func (r *refServer) Addr() string { return r.ln.Addr().String() }

func (r *refServer) Start() error {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := r.ln.Accept()
			if err != nil {
				return // listener closed by Drain
			}
			r.mu.Lock()
			r.conns[c] = true
			r.mu.Unlock()
			r.wg.Add(1)
			go r.serve(c)
		}
	}()
	return nil
}

// Drain stops accepting, closes every connection and waits for the
// goroutines; the generator has finished with them by the time it asks.
func (r *refServer) Drain(time.Duration) bool {
	r.ln.Close()
	r.mu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return true
}

func (r *refServer) serve(c net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.conns, c)
		r.mu.Unlock()
		c.Close()
	}()
	rd := bufio.NewReaderSize(c, 16<<10)
	w := bufio.NewWriterSize(c, 64<<10)
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return
		}
		id, ok := objID(line)
		if !ok || id >= r.set.Len() {
			return
		}
		closeAfter := false
		for {
			h, err := rd.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(bytes.TrimSpace(h)) == 0 {
				break
			}
			closeAfter = closeAfter || bytes.EqualFold(bytes.TrimSpace(h), []byte("Connection: close"))
		}
		body := r.blob[:r.set.Object(id).Size]
		fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(body))
		w.Write(body)
		// Flush once nothing more is buffered, so pipelined requests
		// share a write as they do on the servers under test.
		if rd.Buffered() == 0 || closeAfter {
			if err := w.Flush(); err != nil {
				return
			}
		}
		r.replies.Add(1)
		if closeAfter {
			return
		}
	}
}

// objID parses "GET /obj/<id> HTTP/1.1".
func objID(line []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(line, []byte("GET /obj/"))
	if !ok {
		return 0, false
	}
	num, _, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(string(num))
	return id, err == nil && id >= 0
}
