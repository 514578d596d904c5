package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the server child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Every metric BENCHMARK.json names is printed with its unit on every
// workload, and nothing else is.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := runBench(options{workload: w.Name, seed: 99, seconds: 1, trace: trace, workdir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// stubServer answers GET /obj/<id> with the right head and body, except
// that it flips one body byte of response number corrupt (from 0).
func stubServer(t *testing.T, c *content, corrupt int) string {
	t.Helper()
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		var pending []byte
		n := 0
		for {
			k, err := conn.Read(buf)
			if err != nil {
				return
			}
			pending = append(pending, buf[:k]...)
			for {
				end := bytes.Index(pending, []byte("\r\n\r\n"))
				if end < 0 {
					break
				}
				var id int
				fmt.Sscanf(string(pending), "GET /obj/%d ", &id)
				pending = pending[end+4:]
				body := append([]byte(nil), c.blob[:c.sizes[id]]...)
				if n == corrupt {
					body[len(body)/2] ^= 0xff
				}
				n++
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(body))
				if _, err := conn.Write(body); err != nil {
					return
				}
			}
		}
	}()
	return ln.Addr().String()
}

func testBench(t *testing.T, name string) *bench {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(w, 5, t.TempDir(), false, &ledger{})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := w.streams(b.set, 5)
	if err != nil {
		t.Fatal(err)
	}
	b.stream0 = streams[0]
	return b
}

// A server that corrupts one body byte is counted as a failure.
func TestCorruptBodyIsAFailure(t *testing.T) {
	b := testBench(t, "pingpong")
	d, err := newDialer(stubServer(t, b.content, 3))
	if err != nil {
		t.Fatal(err)
	}
	reqs := b.w.requests(b.set.Len())
	tg := &target{name: "stub", workers: []roundWorker{newKeepAlive(d, b.content, reqs, b.stream0, 1)}}
	defer tg.workers[0].(*keepAlive).close()
	if err := b.measure(tg, 0, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if b.failed != 1 || tg.validated != 3 {
		t.Fatalf("failed=%d validated=%d, want 1 failed after 3 good replies", b.failed, tg.validated)
	}
	if len(b.failures) == 0 || !strings.Contains(b.failures[0].Error(), "body bytes differ") {
		t.Fatalf("failures %v", b.failures)
	}
}

// A reply that fails validation during a set-up pass that is torn down
// again still fails the run.
func TestSetupFailureFailsRun(t *testing.T) {
	setupHook = func(pass int, b *bench) {
		if pass == 0 { // expect one wrong byte in every body of the first pass
			blob := append([]byte(nil), b.content.blob...)
			blob[0] ^= 0xff
			b.content.blob = blob
		}
	}
	defer func() { setupHook = nil }()
	var out bytes.Buffer
	res, err := runBench(options{workload: "pingpong", seed: 5, seconds: 1, workdir: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d after a corrupted set-up pass", res.Correct, res.Failed)
	}
	if !strings.Contains(out.String(), "body bytes differ") {
		t.Fatalf("the set-up failure is not reported:\n%s", out.String())
	}
}

// A server that dies mid-run fails the run rather than leaving a round
// with no samples to report as zero latency.
func TestKilledChildFailsRun(t *testing.T) {
	b := testBench(t, "pingpong")
	c, err := spawn("nio", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	b.children = append(b.children, c)
	defer b.abort()
	d, err := newDialer(c.addr)
	if err != nil {
		t.Fatal(err)
	}
	reqs := b.w.requests(b.set.Len())
	tg := &target{name: "nio", front: c, procs: []*child{c}, workers: []roundWorker{newKeepAlive(d, b.content, reqs, b.stream0, 1)}}
	defer tg.workers[0].(*keepAlive).close()
	if err := b.measure(tg, 0, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(100*time.Millisecond, func() { _ = c.cmd.Process.Kill() })
	err = b.measure(tg, 1, time.Second)
	if err == nil && b.failed == 0 {
		t.Fatal("a killed server left the run correct")
	}
	if len(tg.rounds) != 1 {
		t.Fatalf("%d rounds kept, want only the one before the kill", len(tg.rounds))
	}
}

// The response reader rejects a wrong status and a wrong length.
func TestRespReaderChecksHead(t *testing.T) {
	b := testBench(t, "pingpong")
	id := b.stream0[0]
	size := b.content.sizes[id]
	for _, tc := range []struct{ head, want string }{
		{fmt.Sprintf("HTTP/1.1 404 Not Found\r\nContent-Length: %d\r\n\r\n", size), "status"},
		{fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size+1), "Content-Length"},
		{"HTTP/1.1 200 OK\r\n\r\n", "no Content-Length"},
	} {
		r := respReader{c: b.content}
		err := r.feed([]byte(tc.head), func() int32 { return id }, func() {})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err %v, want %q", tc.head, err, tc.want)
		}
	}
	r := respReader{c: b.content}
	msg := append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n", size)), b.content.blob[:size]...)
	done := 0
	for i := range msg { // one byte at a time: framing must not depend on read boundaries
		if err := r.feed(msg[i:i+1], func() int32 { return id }, func() { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if done != 1 {
		t.Fatalf("%d responses completed, want 1", done)
	}
}
