//go:build linux

package core

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// benchServer starts a server with a fixed-size object for the micro
// benchmarks: one acceptor fanning out to shards event loops.
func benchServer(b *testing.B, shards int, bodyBytes int) (*Server, net.Conn, *bufio.Reader) {
	b.Helper()
	store := MapStore{"/obj": make([]byte, bodyBytes)}
	cfg := DefaultConfig(store)
	cfg.Shards = shards
	cfg.AcceptFanout = true
	s, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Stop)
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return s, c, bufio.NewReaderSize(c, 64<<10)
}

// BenchmarkSequentialRequests measures single-connection request latency
// over keep-alive (syscall + parse + serve + write round trip).
func BenchmarkSequentialRequests(b *testing.B) {
	for _, size := range []int{1 << 10, 16 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			_, c, r := benchServer(b, 1, size)
			req := []byte("GET /obj HTTP/1.1\r\nHost: x\r\n\r\n")
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Write(req); err != nil {
					b.Fatal(err)
				}
				resp, err := http.ReadResponse(r, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
			}
		})
	}
}

// BenchmarkPipelinedBatch measures the reactor's pipelining throughput:
// 16 requests written back-to-back, 16 responses drained.
func BenchmarkPipelinedBatch(b *testing.B) {
	const batch = 16
	_, c, r := benchServer(b, 1, 4<<10)
	wire := []byte(strings.Repeat("GET /obj HTTP/1.1\r\nHost: x\r\n\r\n", batch))
	b.SetBytes(batch * 4 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(wire); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < batch; j++ {
			resp, err := http.ReadResponse(r, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	}
}
