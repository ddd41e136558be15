package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"dmap/internal/guid"
	"dmap/internal/trace"
)

// frameRec is one frame as a reader reported it.
type frameRec struct {
	t       MsgType
	id      uint64
	payload []byte
}

// readAllRef reads stream to its end with ReadFrameIDInto — the
// behaviour Reader must reproduce — and returns the frames and the error
// that ended the sequence.
func readAllRef(stream []byte) ([]frameRec, error) {
	r := bytes.NewReader(stream)
	var out []frameRec
	for {
		t, id, p, err := ReadFrameIDInto(r, nil)
		if err != nil {
			return out, err
		}
		out = append(out, frameRec{t, id, p})
	}
}

// freshBuf is a Next payload source that supplies new storage for every
// payload, so none is a view and each can be kept.
func freshBuf(_ MsgType, n int) []byte { return make([]byte, 0, n) }

// viewBuf is a Next payload source that asks for a view of every payload.
func viewBuf(MsgType, int) []byte { return nil }

// readCounter counts the Reads that reach the source.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// readAllReader reads src to its end through a Reader, with get as the
// payload source. Payloads are kept exactly as Next returned them, not
// copied: had one aliased the Reader's buffer, the frames parsed after
// it would have overwritten it by the time the caller compares — except
// views (get returns nil), which are only valid until the next Next and
// so are copied at once. Before every Next it asks Buffered, which must
// issue no Read and must be right: after a yes Next issues none either,
// after a no Next goes to the source or fails. A wrong answer ends the
// sequence with an error no reference read ends with.
func readAllReader(src io.Reader, get func(MsgType, int) []byte) ([]frameRec, error) {
	rc := &readCounter{r: src}
	rd := NewReader(rc)
	var out []frameRec
	for {
		before := rc.reads
		buffered := rd.Buffered()
		if rc.reads != before {
			return out, fmt.Errorf("frame %d: Buffered issued a Read", len(out))
		}
		t, id, p, err := rd.Next(get)
		if read := rc.reads != before; buffered && read {
			return out, fmt.Errorf("frame %d: Buffered said yes, Next issued a Read", len(out))
		} else if !buffered && !read && err == nil {
			return out, fmt.Errorf("frame %d: Buffered said no, Next returned a frame without a Read", len(out))
		}
		if err != nil {
			return out, err
		}
		if get(t, len(p)) == nil {
			p = append([]byte(nil), p...)
		}
		out = append(out, frameRec{t, id, p})
	}
}

// sources are the payload sources every equivalence check reads with:
// a copy into storage of the caller's, and a view.
var sources = map[string]func(MsgType, int) []byte{"copy": freshBuf, "view": viewBuf}

// chunkReader hands its source out in seeded random pieces of 1..max
// bytes, as a TCP stream may.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(c.max); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// chunkings are the deliveries every equivalence check runs through.
func chunkings(stream []byte) map[string]io.Reader {
	return map[string]io.Reader{
		"whole":     bytes.NewReader(stream),
		"one-byte":  iotest.OneByteReader(bytes.NewReader(stream)),
		"half":      iotest.HalfReader(bytes.NewReader(stream)),
		"data-err":  iotest.DataErrReader(bytes.NewReader(stream)),
		"random-7":  &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(7)), 7},
		"random-4k": &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(11)), 4096},
		"random-1m": &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(13)), 1 << 20},
	}
}

func assertSameFrames(t *testing.T, name string, got []frameRec, gotErr error, want []frameRec, wantErr error) {
	t.Helper()
	if gotErr != wantErr {
		t.Fatalf("%s: ended with %v, ReadFrameIDInto ends with %v", name, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].t != want[i].t || got[i].id != want[i].id || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("%s: frame %d = (%v, %d, %d bytes), want (%v, %d, %d bytes)", name, i,
				got[i].t, got[i].id, len(got[i].payload), want[i].t, want[i].id, len(want[i].payload))
		}
	}
}

// mustFrame appends one frame or fails the test.
func mustFrame(t testing.TB, dst []byte, typ MsgType, id uint64, payload []byte) []byte {
	t.Helper()
	out, err := AppendFrameID(dst, typ, id, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// patterned returns n bytes no two frames share, so a payload delivered
// under the wrong ID or torn across frames cannot compare equal.
func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	return b
}

// mixedStream is the sequence the issue names: single ops, zero-length
// payloads, a traced frame, batch frames at the payload bound, and
// payloads just below, at and above the Reader's buffer.
func mixedStream(t testing.TB) []byte {
	var s []byte
	g := guid.New("reader")
	s = mustFrame(t, s, MsgLookup, 1, AppendGUID(nil, g))
	s = mustFrame(t, s, MsgPing, 2, nil)
	s = mustFrame(t, s, MsgInsertAck, 3, nil)
	traced, err := AppendFrameIDTrace(nil, MsgLookup, 4, trace.Context{Trace: 9, Span: 5, Sampled: true}, AppendGUID(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	s = append(s, traced...)
	s = mustFrame(t, s, MsgBatchLookupResp, 5, patterned(MaxBatchFrame, 0x11))
	s = mustFrame(t, s, MsgLookup, 6, AppendGUID(nil, g))
	s = mustFrame(t, s, MsgInsert, 7, patterned(MaxFrame, 0x22))
	for i, n := range []int{readerBufSize - FrameIDHeaderLen - 1, readerBufSize - FrameIDHeaderLen, readerBufSize - 1, readerBufSize, readerBufSize + 1} {
		s = mustFrame(t, s, MsgBatchInsert, uint64(8+i), patterned(n, byte(0x30+i)))
		s = mustFrame(t, s, MsgPong, uint64(100+i), nil)
	}
	tracedBatch, err := AppendFrameIDTrace(nil, MsgBatchLookup, 20, trace.Context{Trace: 1, Span: 2, Sampled: true}, patterned(MaxBatchFrame, 0x44))
	if err != nil {
		t.Fatal(err)
	}
	s = append(s, tracedBatch...)
	for i := 0; i < 2000; i++ { // several buffers' worth of small frames
		s = mustFrame(t, s, MsgLookupResp, uint64(1000+i), patterned(1+i%60, byte(i)))
	}
	return s
}

func TestReaderMatchesReadFrameIDInto(t *testing.T) {
	stream := mixedStream(t)
	want, wantErr := readAllRef(stream)
	if wantErr != io.EOF || len(want) < 2000 {
		t.Fatalf("reference read: %d frames, err %v", len(want), wantErr)
	}
	for mode, get := range sources {
		for name, src := range chunkings(stream) {
			got, gotErr := readAllReader(src, get)
			assertSameFrames(t, mode+"/"+name, got, gotErr, want, wantErr)
		}
	}
}

// TestReaderTruncatedStreamErrors cuts a stream at every offset — inside
// a header, right after one, inside a payload, between frames — and
// checks Reader ends the sequence with the error ReadFrameIDInto does,
// copying payloads out or viewing them.
func TestReaderTruncatedStreamErrors(t *testing.T) {
	var stream []byte
	stream = mustFrame(t, stream, MsgLookup, 1, patterned(20, 1))
	stream = mustFrame(t, stream, MsgPing, 2, nil)
	stream = mustFrame(t, stream, MsgInsert, 3, patterned(45, 2))
	for cut := 0; cut <= len(stream); cut++ {
		want, wantErr := readAllRef(stream[:cut])
		for mode, get := range sources {
			for name, src := range chunkings(stream[:cut]) {
				got, gotErr := readAllReader(src, get)
				assertSameFrames(t, mode+"/"+name, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestReaderRejectsBadLengthBeforeSizing feeds headers whose length
// field is out of bounds: Next must fail exactly as ReadFrameIDInto does
// and must not have asked for a payload buffer, so a hostile length
// sizes nothing.
func TestReaderRejectsBadLengthBeforeSizing(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  MsgType
		n    uint32
		want error
	}{
		{"single op over MaxFrame", MsgLookup, idSize + MaxFrame + 1, ErrFrameTooLarge},
		{"batch over MaxBatchFrame", MsgBatchInsert, idSize + MaxBatchFrame + 1, ErrFrameTooLarge},
		{"traced over its bound", MsgLookup | TraceBit, idSize + MaxFrame + TraceContextLen + 1, ErrFrameTooLarge},
		{"huge", MsgPing, 0xFFFFFFFF, ErrFrameTooLarge},
		{"shorter than the request ID", MsgPing, idSize - 1, ErrTruncated},
	} {
		hdr := mustFrame(t, nil, MsgPing, 7, nil)
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(tc.n>>24), byte(tc.n>>16), byte(tc.n>>8), byte(tc.n)
		hdr[4] = byte(tc.typ)
		stream := append(hdr, make([]byte, 64)...)
		if _, _, _, err := ReadFrameIDInto(bytes.NewReader(stream), nil); err != tc.want {
			t.Fatalf("%s: ReadFrameIDInto = %v, want %v", tc.name, err, tc.want)
		}
		asked := false
		_, _, _, err := NewReader(bytes.NewReader(stream)).Next(func(MsgType, int) []byte {
			asked = true
			return nil
		})
		if err != tc.want {
			t.Fatalf("%s: Next = %v, want %v", tc.name, err, tc.want)
		}
		if asked {
			t.Fatalf("%s: Next asked for a payload buffer before rejecting the length", tc.name)
		}
	}
}

// TestReaderPayloadSurvivesNext is the §9 ownership check on the read
// side: payloads drawn from a BufPool stay intact across later Next
// calls, and releasing one (which scribbles over it under
// DMAP_POISON_BUFS=1) corrupts neither the Reader nor any other payload.
func TestReaderPayloadSurvivesNext(t *testing.T) {
	const frames = 3000 // ~100 KiB: the Reader's buffer is refilled many times
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = mustFrame(t, stream, MsgLookupResp, uint64(i), patterned(1+i%60, byte(i)))
	}
	pool := NewBufPool(8)
	get := func(_ MsgType, n int) []byte { return pool.Get(n) }
	rd := NewReader(iotest.HalfReader(bytes.NewReader(stream)))
	var prev []byte
	for i := 0; i < frames; i++ {
		_, id, p, err := rd.Next(get)
		if err != nil || id != uint64(i) {
			t.Fatalf("frame %d: id %d, err %v", i, id, err)
		}
		if i > 0 {
			if want := patterned(1+(i-1)%60, byte(i-1)); !bytes.Equal(prev, want) {
				t.Fatalf("payload %d changed when frame %d was read: it aliased the Reader's buffer", i-1, i)
			}
			pool.Put(prev)
		}
		if want := patterned(1+i%60, byte(i)); !bytes.Equal(p, want) {
			t.Fatalf("payload %d corrupt after payload %d was released", i, i-1)
		}
		prev = p
	}
}

// TestReaderNextZeroAlloc: parsing from the buffer into a pooled payload
// costs no allocation, and neither does a view.
func TestReaderNextZeroAlloc(t *testing.T) {
	frame := mustFrame(t, nil, MsgLookup, 1, patterned(20, 3))
	const runs = 200
	stream := bytes.Repeat(frame, 2*(runs+1)) // AllocsPerRun adds a warm-up call
	pool := NewBufPool(2)
	rd := NewReader(bytes.NewReader(stream))
	for mode, get := range map[string]func(MsgType, int) []byte{
		"pooled": func(_ MsgType, n int) []byte { return pool.Get(n) },
		"view":   viewBuf,
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			_, _, p, err := rd.Next(get)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "pooled" {
				pool.Put(p) // a view is the Reader's
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Next allocs/op = %v, want 0", mode, allocs)
		}
	}
}

// FuzzReaderChunking: for any byte stream and any chunking of it, Reader
// yields the frames and the final error ReadFrameIDInto yields on the
// unsplit stream, copying payloads out or viewing them, and Buffered
// foretells every Next (readAllReader).
func FuzzReaderChunking(f *testing.F) {
	var ok []byte
	ok = mustFrame(f, ok, MsgLookup, 1, patterned(20, 1))
	ok = mustFrame(f, ok, MsgPing, 2, nil)
	ok = mustFrame(f, ok, MsgBatchInsert, 3, patterned(readerBufSize+100, 2))
	ok = mustFrame(f, ok, MsgLookupResp|TraceBit, 4, patterned(TraceContextLen+30, 3))
	f.Add(ok, int64(1), uint16(1))
	f.Add(ok, int64(2), uint16(5000))
	f.Add(ok[:len(ok)-7], int64(3), uint16(64))            // ends inside a payload
	f.Add(ok[:FrameIDHeaderLen+20+4], int64(4), uint16(3)) // ends inside a header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgPing), 0, 0, 0, 0, 0, 0, 0, 1, 9, 9}, int64(5), uint16(2))
	f.Add([]byte{0, 0, 0, 3, byte(MsgPing), 0, 0, 0, 0, 0, 0, 0, 1}, int64(6), uint16(2))
	f.Fuzz(func(t *testing.T, stream []byte, seed int64, maxChunk uint16) {
		want, wantErr := readAllRef(stream)
		for mode, get := range sources {
			src := &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(seed)), 1 + int(maxChunk)}
			got, gotErr := readAllReader(src, get)
			assertSameFrames(t, mode, got, gotErr, want, wantErr)
		}
	})
}
