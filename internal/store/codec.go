// On-disk entry codec shared by the WAL, the snapshot files and the
// deterministic dump. The layout deliberately mirrors the §IV-A storage
// accounting (and the wire protocol's entry encoding), but it is an
// independent format: the durable files version themselves and may
// evolve separately from what peers speak on the wire. It reads and
// writes the table's own form (record): replay and snapshot load never
// build an Entry, and a snapshot or a dump never unpacks one.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dmap/internal/guid"
)

// ErrShortEntry reports a truncated on-disk entry encoding.
var ErrShortEntry = errors.New("store: truncated entry encoding")

// entryFixedLen is the fixed prefix of an encoded entry:
// GUID(20) ‖ version(8) ‖ meta(4) ‖ naCount(1).
const entryFixedLen = guid.Size + 8 + 4 + 1

// maxEntryLen bounds one encoded entry (5 NAs at 8 bytes each).
const maxEntryLen = entryFixedLen + 8*MaxNAs

// appendEntry encodes g's record:
// GUID(20) ‖ version(8) ‖ meta(4) ‖ naCount(1) ‖ naCount × (AS(4) ‖ addr(4)).
// A record is valid by construction; appendEntry never fails.
func appendEntry(dst []byte, g guid.GUID, r *record) []byte {
	dst = append(dst, g[:]...)
	dst = binary.BigEndian.AppendUint64(dst, r.version)
	dst = binary.BigEndian.AppendUint32(dst, r.meta)
	dst = append(dst, r.n)
	dst = binary.BigEndian.AppendUint32(dst, r.na0.as)
	dst = binary.BigEndian.AppendUint32(dst, r.na0.addr)
	for _, na := range r.more[:r.n-1] {
		dst = binary.BigEndian.AppendUint32(dst, na.as)
		dst = binary.BigEndian.AppendUint32(dst, na.addr)
	}
	return dst
}

// decodeEntry decodes one entry into r and returns its GUID and the
// remaining bytes. What Entry.Validate would refuse is refused here, so
// a corrupt or hostile file cannot smuggle a structurally invalid entry
// into the store; an AS index cannot be out of range in four bytes.
func decodeEntry(r *record, b []byte) (g guid.GUID, rest []byte, err error) {
	if len(b) < entryFixedLen {
		return g, nil, ErrShortEntry
	}
	copy(g[:], b)
	if g.IsZero() {
		return g, nil, fmt.Errorf("store: zero GUID")
	}
	b = b[guid.Size:]
	n := int(b[12])
	if n == 0 || n > MaxNAs {
		return g, nil, fmt.Errorf("store: NA count %d out of range", n)
	}
	*r = record{slim: slim{version: binary.BigEndian.Uint64(b), meta: binary.BigEndian.Uint32(b[8:]), n: uint8(n)}}
	b = b[13:]
	if len(b) < 8*n {
		return g, nil, ErrShortEntry
	}
	r.na0 = packedNA{binary.BigEndian.Uint32(b), binary.BigEndian.Uint32(b[4:])}
	for i := range r.more[:n-1] {
		b = b[8:]
		r.more[i] = packedNA{binary.BigEndian.Uint32(b), binary.BigEndian.Uint32(b[4:])}
	}
	return g, b[8:], nil
}
