// Anti-entropy repair frames: the v2 wire extension behind the
// background replica-repair protocol (DESIGN.md §12).
//
// Any peer past the hello may send MsgRepairDigest frames; nothing is
// negotiated, since every node answers them. A digest frame advertises a bounded page of (GUID, version)
// fingerprints covering a keyspace interval (after, through] —
// range-complete: every mapping the sender holds in the interval is
// fingerprinted, so absence is information. The receiver answers
// MsgRepairDiff with everything it holds newer (or that the sender
// lacks) in the interval, plus the GUIDs it wants pushed because the
// sender's copy is fresher; `covered` bounds the sub-interval the reply
// fully compared, so an oversized diff resumes from there instead of
// silently truncating. Entry pushes reuse MsgBatchInsert — the store's
// §III-D2 freshest-wins Put makes them idempotent.
package wire

import (
	"encoding/binary"
	"fmt"

	"dmap/internal/guid"
	"dmap/internal/store"
)

// MaxRepairDigests bounds the digests per MsgRepairDigest frame. At the
// 28-byte digest encoding a full page stays under the non-batch
// MaxFrame payload bound.
const MaxRepairDigests = MaxBatch

// appendRepairCount encodes a uint16 count that — unlike a batch
// count — may be zero: an empty digest page over a non-empty range
// still tells the receiver the sender holds nothing there.
func appendRepairCount(dst []byte, n int) ([]byte, error) {
	if n < 0 || n > MaxBatch {
		return nil, ErrBatchSize
	}
	return binary.BigEndian.AppendUint16(dst, uint16(n)), nil
}

func decodeRepairCount(b []byte) (int, []byte, error) {
	if len(b) < 2 {
		return 0, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > MaxBatch {
		return 0, nil, ErrBatchSize
	}
	return n, b[2:], nil
}

// AppendRepairDigest encodes a MsgRepairDigest body:
// after(20) ‖ through(20) ‖ uint16 count ‖ count × (GUID(20) ‖ version(8)).
// The digests must lie in (after, through] in strictly ascending
// keyspace order — exactly what Store.ShardDigests produces.
func AppendRepairDigest(dst []byte, after, through guid.GUID, ds []store.Digest) ([]byte, error) {
	if guid.Compare(after, through) >= 0 {
		return nil, fmt.Errorf("wire: empty repair range (%s, %s]", after.Short(), through.Short())
	}
	dst = append(dst, after[:]...)
	dst = append(dst, through[:]...)
	dst, err := appendRepairCount(dst, len(ds))
	if err != nil {
		return nil, err
	}
	prev := after
	for _, d := range ds {
		if guid.Compare(d.GUID, prev) <= 0 || guid.Compare(d.GUID, through) > 0 {
			return nil, fmt.Errorf("wire: digest %s outside or out of order in (%s, %s]",
				d.GUID.Short(), after.Short(), through.Short())
		}
		prev = d.GUID
		dst = append(dst, d.GUID[:]...)
		dst = binary.BigEndian.AppendUint64(dst, d.Version)
	}
	return dst, nil
}

// DecodeRepairDigest decodes a MsgRepairDigest body, enforcing the
// encoder's invariants: a non-empty range, digests strictly ascending
// and inside it, no trailing bytes. The returned page is freshly
// allocated.
func DecodeRepairDigest(b []byte) (after, through guid.GUID, ds []store.Digest, err error) {
	if len(b) < 2*guid.Size+2 {
		return after, through, nil, ErrTruncated
	}
	copy(after[:], b[:guid.Size])
	copy(through[:], b[guid.Size:2*guid.Size])
	if guid.Compare(after, through) >= 0 {
		return after, through, nil, fmt.Errorf("wire: empty repair range")
	}
	n, b, err := decodeRepairCount(b[2*guid.Size:])
	if err != nil {
		return after, through, nil, err
	}
	const digestLen = guid.Size + 8
	if len(b) != n*digestLen {
		return after, through, nil, ErrTruncated
	}
	ds = make([]store.Digest, n)
	prev := after
	for i := 0; i < n; i++ {
		copy(ds[i].GUID[:], b[:guid.Size])
		ds[i].Version = binary.BigEndian.Uint64(b[guid.Size:])
		b = b[digestLen:]
		if guid.Compare(ds[i].GUID, prev) <= 0 || guid.Compare(ds[i].GUID, through) > 0 {
			return after, through, nil, fmt.Errorf("wire: digest %d outside or out of order", i)
		}
		prev = ds[i].GUID
	}
	return after, through, ds, nil
}

// AppendRepairDiff encodes a MsgRepairDiff body:
// covered(20) ‖ uint16 newerCount ‖ newerCount × entry ‖
// uint16 wantCount ‖ wantCount × GUID.
// covered is the upper bound of the fully-compared sub-range; a
// receiver that had to truncate its reply sets covered below the
// digest's through and the sweeper resumes from it.
func AppendRepairDiff(dst []byte, covered guid.GUID, newer []store.Entry, want []guid.GUID) ([]byte, error) {
	dst = append(dst, covered[:]...)
	dst, err := appendRepairCount(dst, len(newer))
	if err != nil {
		return nil, err
	}
	for _, e := range newer {
		if dst, err = AppendEntry(dst, e); err != nil {
			return nil, err
		}
	}
	if dst, err = appendRepairCount(dst, len(want)); err != nil {
		return nil, err
	}
	for _, g := range want {
		dst = AppendGUID(dst, g)
	}
	return dst, nil
}

// DecodeRepairDiff decodes a MsgRepairDiff body. Trailing bytes are
// rejected; newer and want are freshly allocated (nil when empty).
func DecodeRepairDiff(b []byte) (covered guid.GUID, newer []store.Entry, want []guid.GUID, err error) {
	if len(b) < guid.Size+2 {
		return covered, nil, nil, ErrTruncated
	}
	copy(covered[:], b[:guid.Size])
	n, b, err := decodeRepairCount(b[guid.Size:])
	if err != nil {
		return covered, nil, nil, err
	}
	if n > 0 {
		newer = make([]store.Entry, n)
		for i := 0; i < n; i++ {
			if newer[i], b, err = DecodeEntryAppend(nil, b); err != nil {
				return covered, nil, nil, err
			}
		}
	}
	m, b, err := decodeRepairCount(b)
	if err != nil {
		return covered, nil, nil, err
	}
	if len(b) != m*guid.Size {
		return covered, nil, nil, ErrTruncated
	}
	if m > 0 {
		want = make([]guid.GUID, m)
		for i := 0; i < m; i++ {
			if want[i], b, err = DecodeGUID(b); err != nil {
				return covered, nil, nil, err
			}
		}
	}
	return covered, newer, want, nil
}
