package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is USER_HZ, the unit of /proc/<pid>/stat's utime and stime. It
// is 100 on every Linux ABI Go runs on.
const clkTck = 100

// parseStatCPU returns utime+stime from the contents of
// /proc/<pid>/stat. The comm field may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no comm terminator")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(ut+st) * (time.Second / clkTck), nil
}

// parseStatmRSS returns the resident set size in bytes from the
// contents of /proc/<pid>/statm (second field, in pages).
func parseStatmRSS(b []byte, pageSize int) (int64, error) {
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("proc statm: %d fields, want >= 2", len(f))
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc statm resident: %w", err)
	}
	return pages * int64(pageSize), nil
}

// procIO is the part of /proc/<pid>/io the benchmark reads: wchar
// counts bytes passed to write-family syscalls (sockets included),
// writeBytes the bytes the process caused to be sent to the storage
// layer (page-cache dirtying on this sandbox).
type procIO struct {
	wchar      int64
	writeBytes int64
}

func parseIO(b []byte) (procIO, error) {
	var io procIO
	seen := 0
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		var dst *int64
		switch k {
		case "wchar":
			dst = &io.wchar
		case "write_bytes":
			dst = &io.writeBytes
		default:
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io %s: %w", k, err)
		}
		*dst = n
		seen++
	}
	if seen != 2 {
		return procIO{}, fmt.Errorf("proc io: found %d of wchar, write_bytes", seen)
	}
	return io, nil
}

// procSample is one reading of a node process from outside.
type procSample struct {
	cpu time.Duration
	rss int64
	io  procIO
}

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseStatCPU(b); err != nil {
		return s, err
	}
	if b, err = os.ReadFile(dir + "/statm"); err != nil {
		return s, err
	}
	if s.rss, err = parseStatmRSS(b, os.Getpagesize()); err != nil {
		return s, err
	}
	if b, err = os.ReadFile(dir + "/io"); err != nil {
		return s, err
	}
	if s.io, err = parseIO(b); err != nil {
		return s, err
	}
	return s, nil
}

// selfCPU is the driver's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
