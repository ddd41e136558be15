package nodesim

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dmap/internal/guid"
	"dmap/internal/server"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// TestFrameTableMatchesTCP: a simulated node answers every request frame
// as a TCP node does — the same reply type and body for each request
// type well-formed, truncated and with trailing bytes, and for an
// unknown type — because the same server code answers both. The two
// nodes start from the same store and take the same frames in the same
// order, so the writes among them leave the stores equal too.
func TestFrameTableMatchesTCP(t *testing.T) {
	d, _ := testDeployment(t, 3, false)
	held := entryFor("frame-table", 3, 42)
	reps := replicasOf(t, d, held)
	as, src := reps[0], reps[1] // src shares held with as: the link's digest scope names it
	simStore, err := d.nodes.store(as)
	if err != nil {
		t.Fatal(err)
	}
	tcp := server.NewWithOptions(nil, server.Options{})
	for _, st := range []*store.Store{simStore, tcp.Store()} {
		if _, err := st.Put(held); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := tcp.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	conn, err := wire.Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	link := querier{d: d, src: src, dst: as}

	fresh := []store.Entry{entryFor("frame-table-1", 1, 7), entryFor("frame-table-2", 2, 8)}
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	requests := []struct {
		t    wire.MsgType
		body []byte
	}{
		// Reads and the digest first, while the store holds held alone.
		{wire.MsgPing, nil},
		{wire.MsgLookup, wire.AppendGUID(nil, held.GUID)},
		{wire.MsgBatchLookup, must(wire.AppendBatchLookup(nil, []guid.GUID{held.GUID, fresh[0].GUID}))},
		{wire.MsgRepairDigest, must(wire.AppendRepairDigest(nil, guid.GUID{}, guid.Max(), nil))},
		{wire.MsgInsert, must(wire.AppendEntry(nil, fresh[0]))},
		{wire.MsgBatchInsert, must(wire.AppendBatchInsert(nil, fresh))},
		{wire.MsgDelete, wire.AppendGUID(nil, held.GUID)},
		{wire.MsgRepairDiff + 1, []byte("?")}, // no such request type
	}
	type reply struct {
		t    wire.MsgType
		body []byte
	}
	ask := func(t wire.MsgType, body []byte) (got [2]reply, err error) {
		tt, b, err := conn.RoundTrip(t, body, time.Second)
		if err != nil {
			return got, err
		}
		got[0] = reply{tt, bytes.Clone(b)} // valid until the next exchange
		tt, b, err = link.RoundTrip(t, body, time.Second)
		got[1] = reply{tt, b}
		return got, err
	}
	type variant struct {
		name string
		body []byte
	}
	for _, r := range requests {
		variants := []variant{{"well-formed", r.body}, {"trailing bytes", append(bytes.Clone(r.body), 0xEE, 0xEE)}}
		if len(r.body) > 0 {
			variants = append(variants, variant{"truncated", r.body[:len(r.body)-1]})
		}
		for _, v := range variants {
			got, err := ask(r.t, v.body)
			if err != nil {
				t.Errorf("%v %s: %v", r.t, v.name, err)
			} else if got[0].t != got[1].t || !bytes.Equal(got[0].body, got[1].body) {
				t.Errorf("%v %s: TCP answered %v %q, the link %v %q", r.t, v.name, got[0].t, got[0].body, got[1].t, got[1].body)
			}
		}
	}
	if !bytes.Equal(simStore.AppendDump(nil), tcp.Store().AppendDump(nil)) {
		t.Error("the two stores differ after the same frames")
	}
}

// TestBatchFramesMatchSingleOnTheLink: on the link, InsertBatch then
// LookupBatch gives what Write then Read give for the same entries:
// every entry acked, and each GUID found with the same entry. (The ack
// counts differ by design: Insert acks per placement, InsertBatch per
// distinct AS.)
func TestBatchFramesMatchSingleOnTheLink(t *testing.T) {
	const writer, reader = 42, 17
	var entries []store.Entry
	var gs []guid.GUID
	for i := 0; i < 20; i++ {
		e := entryFor(fmt.Sprintf("batch-%d", i), uint64(1+i%3), 50+i)
		entries, gs = append(entries, e), append(gs, e.GUID)
	}
	gs = append(gs, guid.New("batch-never-written"))

	batched, _ := testDeployment(t, 3, false)
	acks, err := batched.clientAt(writer).InsertBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	resolved, hits, err := batched.clientAt(reader).LookupBatch(gs)
	if err != nil {
		t.Fatal(err)
	}

	single, _ := testDeployment(t, 3, false)
	for i, e := range entries {
		if n, _ := write(t, single, writer, e); n == 0 || acks[i] == 0 {
			t.Errorf("entry %d: Write acked %d placements, InsertBatch %d ASs", i, n, acks[i])
		}
	}
	for i, g := range gs {
		r := read(t, single, reader, g)
		if r.Found != hits[i] {
			t.Fatalf("GUID %d: Read found %t, LookupBatch %t", i, r.Found, hits[i])
		}
		if r.Found && fmt.Sprint(r.Entry) != fmt.Sprint(resolved[i]) {
			t.Errorf("GUID %d: Read gave %+v, LookupBatch %+v", i, r.Entry, resolved[i])
		}
	}
}
