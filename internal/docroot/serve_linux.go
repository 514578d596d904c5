//go:build linux

package docroot

import (
	"errors"
	"io"
	"syscall"

	"repro/internal/sysfault"
)

// sendfileChunk bounds one sendfile(2) call so a multi-gigabyte file
// cannot pin a blocking worker in a single uninterruptible syscall and
// write deadlines keep getting re-checked.
const sendfileChunk = 1 << 20

// SendfileTo delivers the entry's whole body to conn — zero-copy with
// blocking sendfile(2) when conn exposes a raw descriptor, buffered
// otherwise. This is the thread-pool server's delivery path; the
// reactor uses the non-blocking variant in internal/reactor instead.
//
// When sendfile(2) fails mid-response with anything other than a dead
// peer (EINVAL/EIO — a filesystem refusing the fast path, an injected
// fault), delivery falls back to the buffered copy loop from the
// exact resume offset (a failing sendfile never advances its offset),
// so the byte stream stays correct; fellBack reports it so the server
// can count the degradation. Peer-death errors (ECONNRESET, EPIPE)
// are returned as-is — there is no one left to deliver to.
func SendfileTo(conn Writer, e *Entry) (n int64, fellBack bool, err error) {
	return SendfileToNotify(conn, e, nil)
}

// SendfileToNotify is SendfileTo with a hook that runs once, before the
// buffered fallback writes its first byte, so a server's fallback
// counter is published before the client can have the whole body.
func SendfileToNotify(conn Writer, e *Entry, onFallback func()) (n int64, fellBack bool, err error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		n, err = copyTo(conn, e)
		return n, false, err
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		n, err = copyTo(conn, e)
		return n, false, err
	}
	var (
		off  int64
		sent int64
		serr error
	)
	werr := rc.Write(func(fd uintptr) bool {
		for sent < e.Size {
			chunk := e.Size - sent
			if chunk > sendfileChunk {
				chunk = sendfileChunk
			}
			n, err := sysfault.Sendfile(0, int(fd), e.FD(), &off, int(chunk))
			if n > 0 {
				sent += int64(n)
				continue
			}
			switch err {
			case syscall.EAGAIN:
				return false // park until the socket is writable again
			case nil:
				serr = io.ErrUnexpectedEOF // file shrank underneath us
				return true
			default:
				serr = err
				return true
			}
		}
		return true
	})
	if werr != nil {
		return sent, false, werr
	}
	if serr != nil && serr != io.ErrUnexpectedEOF &&
		!errors.Is(serr, syscall.ECONNRESET) && !errors.Is(serr, syscall.EPIPE) {
		if onFallback != nil {
			onFallback()
		}
		copied, cerr := copyToFrom(conn, e, sent)
		return sent + copied, true, cerr
	}
	return sent, false, serr
}
