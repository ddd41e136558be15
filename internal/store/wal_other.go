//go:build !linux

package store

// appender is empty outside Linux: the log appends through os.File
// (wal_linux.go has the raw write(2)).
type appender struct{}

func (seg *segment) bindAppend() error { return nil }

// append writes p to the end of seg.
func (seg *segment) append(p []byte) (int, error) { return seg.f.Write(p) }
