// Pooled frame/payload buffers: the allocation backbone of the
// single-op hot path.
//
// Ownership contract (DESIGN.md §9): a buffer obtained from a BufPool
// is owned exclusively by the caller until it is handed back with Put.
// Handing a buffer to Put transfers ownership to the pool immediately —
// the caller must not read, write or retain any slice aliasing it
// afterwards, because the pool will hand the same backing array to the
// next Get. Decoded values that must outlive the buffer (entries,
// GUIDs) are safe by construction: every Decode* in this package copies
// into fresh or caller-owned storage and never aliases its input.
//
// The pool is a fixed-capacity free list built on a channel rather than
// sync.Pool: channel sends and receives move plain []byte headers
// without boxing, so Get and Put are allocation-free in steady state —
// sync.Pool would heap-allocate a *[]byte on every Put. When the free
// list is empty Get falls back to make; when it is full Put drops the
// buffer for the GC. Either way the pool never blocks.
package wire

// Poison, when true, makes every BufPool.Put overwrite the buffer with
// a poison byte before recycling it. Any decoded value that (illegally)
// aliases a released buffer is then visibly corrupted instead of
// intermittently wrong. Test-only: set it from TestMain or a test body
// before traffic starts, never in production (it is read without
// synchronization on the hot path by design — a torn read just poisons
// or skips poisoning one buffer).
var Poison bool

// poisonByte fills released buffers under Poison. 0xA5 is unlikely to
// decode as anything structurally valid.
const poisonByte = 0xA5

// maxPooledBuf bounds what Put will retain: anything larger than the
// biggest legal frame (a traced batch frame plus its identified-frame
// header) was grown by a hostile or buggy path and is left to the GC.
const maxPooledBuf = MaxBatchFrame + TraceContextLen + FrameIDHeaderLen

// A BufPool recycles byte buffers between producers and consumers that
// may be different goroutines. The zero value is not usable; use
// NewBufPool.
type BufPool struct {
	free chan []byte
}

// NewBufPool returns a pool retaining at most size idle buffers.
func NewBufPool(size int) *BufPool {
	return &BufPool{free: make(chan []byte, size)}
}

// Get returns a zero-length buffer with capacity at least min, reusing
// a pooled buffer when one fits. The caller owns it until Put.
func (p *BufPool) Get(min int) []byte {
	select {
	case b := <-p.free:
		if cap(b) >= min {
			return b[:0]
		}
		// Too small for this caller; drop it rather than shuffle.
	default:
	}
	if min < 256 {
		min = 256 // converge the pool on generally useful sizes
	}
	return make([]byte, 0, min)
}

// Idle reports how many buffers sit in the free list right now: what a
// test compares to prove that a blocked connection holds none.
func (p *BufPool) Idle() int { return len(p.free) }

// Put releases b back to the pool. b may be nil or foreign (never
// obtained from any pool) — both are accepted, so call sites can
// release unconditionally. After Put returns the caller no longer owns
// b or anything aliasing it.
func (p *BufPool) Put(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:cap(b)]
	if Poison {
		for i := range b {
			b[i] = poisonByte
		}
	}
	select {
	case p.free <- b:
	default: // pool full; let the GC have it
	}
}
