package server

import (
	"testing"

	"dmap/internal/guid"
	"dmap/internal/store"
	"dmap/internal/wire"
)

// durableNode serves a store opened with so, as `dmapnode serve
// -data-dir` does; the test's cleanup closes the node, then the store.
func durableNode(t *testing.T, so store.Options, opts Options) *Node {
	t.Helper()
	st, err := store.Open(so)
	if err != nil {
		t.Fatal(err)
	}
	n := NewWithOptions(st, opts)
	t.Cleanup(func() {
		n.Close()
		st.Close()
	})
	return n
}

// store.Open → serve → write → Close the node, then the store → reopen
// must serve the written state; the node leaves the store open, and
// closing it after the node is the clean shutdown.
func TestOpenDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	n := NewWithOptions(st, Options{})
	if _, err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	e := testEntry()
	if _, err := n.Store().Put(e); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// The node does not own the store: it is still writable.
	fresh := e
	fresh.GUID[0] ^= 0xFF
	if _, err := st.Put(fresh); err != nil {
		t.Fatalf("store closed by the node: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	r := durableNode(t, store.Options{Dir: dir}, Options{})
	for _, want := range []store.Entry{e, fresh} {
		got, ok := r.Store().Get(want.GUID)
		if !ok || got.Version != want.Version {
			t.Fatalf("recovered entry = (%+v, %v), want version %d", got, ok, want.Version)
		}
	}
}

// A store that cannot log an insert is the node's failure, not the
// peer's: the insert is answered ErrKindInternal and counted as an
// error, while an entry that is invalid (a zero GUID) is still the
// peer's fault, ErrKindBadRequest.
func TestUnloggedInsertIsInternal(t *testing.T) {
	n := durableNode(t, store.Options{Dir: t.TempDir()}, Options{})
	conn, _ := serveCounted(t, n)
	n.Store().Close() // closed under the serving node
	valid, err := wire.AppendEntry(nil, testEntry())
	if err != nil {
		t.Fatal(err)
	}
	zero := append([]byte(nil), valid...)
	copy(zero, make([]byte, guid.Size)) // the encoder refuses a zero GUID; a peer need not
	for _, c := range []struct {
		name string
		body []byte
		want wire.ErrKind
	}{{"entry", valid, wire.ErrKindInternal}, {"zero-GUID entry", zero, wire.ErrKindBadRequest}} {
		frame, err := wire.AppendFrameID(nil, wire.MsgInsert, 1, c.body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		typ, _, body, err := wire.ReadFrameIDInto(conn, nil)
		if err != nil || typ != wire.MsgError {
			t.Fatalf("%s: reply = (%v, %v), want MsgError", c.name, typ, err)
		}
		if kind, _, err := wire.DecodeErrorKind(body); err != nil || kind != c.want {
			t.Fatalf("%s: kind %v (%v), want %v", c.name, kind, err, c.want)
		}
	}
	if st := n.Stats(); st.Errors != 1 || st.BadRequests != 1 || st.Inserts != 0 {
		t.Fatalf("Stats = %+v, want 1 error, 1 bad request, no insert", st)
	}
}

// Drain must leave every acknowledged write durable (Sync), and a
// shard-count mismatch must surface as a store.Open error.
func TestOpenDrainSyncsAndShardMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncInterval, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := NewWithOptions(st, Options{})
	if _, err := n.Store().Put(testEntry()); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if !n.Draining() {
		t.Fatal("not draining")
	}
	n.Close()
	st.Close()
	if _, err := store.Open(store.Options{Dir: dir, Shards: 8}); err == nil {
		t.Fatal("shard-count change accepted")
	}
	r := durableNode(t, store.Options{Dir: dir, Shards: 4}, Options{})
	if _, ok := r.Store().Get(testEntry().GUID); !ok {
		t.Fatal("drained write not recovered")
	}
}
