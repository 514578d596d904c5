//go:build !linux

package docroot

// SendfileTo on platforms without sendfile(2) is the buffered fallback:
// a pread/write copy loop. Same contract as the Linux version.
func SendfileTo(conn Writer, e *Entry) (int64, bool, error) {
	n, err := copyTo(conn, e)
	return n, false, err
}

// SendfileToNotify is SendfileTo; there is no fast path to fall back
// from, so onFallback never runs.
func SendfileToNotify(conn Writer, e *Entry, onFallback func()) (int64, bool, error) {
	return SendfileTo(conn, e)
}
