package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/wire"
)

// testDynamicServer builds a Server over an oracle.Dynamic engine on a
// 64-vertex Erdős–Rényi graph.
func testDynamicServer(t testing.TB) *Server {
	t.Helper()
	base := gen.ErdosRenyi(64, 0.08, rng.New(4))
	d, err := oracle.NewDynamic(base, oracle.DynamicOptions{
		Oracle: oracle.Options{Backend: oracle.BackendExactCached, Seed: 5},
	})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	return NewBackend(DynamicBackend{d}, Config{})
}

// The update/snapshot text verbs end to end: mutations apply, queries
// see them, no-ops report applied=false, and a verify snapshot confirms
// the maintained spanner matches a from-scratch rebuild.
func TestTextUpdateSnapshot(t *testing.T) {
	srv := testDynamicServer(t)
	addr, _, _ := startTCP(t, srv)
	c := dialClient(t, addr)

	c.send("snapshot")
	before := c.readLine()
	if !strings.HasPrefix(before, "snapshot n=64 ") || !strings.Contains(before, "seq=0") {
		t.Fatalf("initial snapshot = %q", before)
	}

	// Find a non-adjacent pair by probing distances.
	c.send("dist 0 1")
	if first := c.readLine(); strings.HasPrefix(first, "err") {
		t.Fatalf("dist probe failed: %q", first)
	}

	c.send("update 0 1 del") // may or may not exist; both shapes are valid
	del := c.readLine()
	if !strings.HasPrefix(del, "update 0 1 del = applied=") {
		t.Fatalf("update response = %q", del)
	}
	c.send("update 0 1 add")
	add := c.readLine()
	if !strings.Contains(add, "applied=true") {
		t.Fatalf("adding a just-deleted or absent edge: %q", add)
	}
	c.send("dist 0 1")
	if got := stripLatency(c.readLine()); got != "dist 0 1 = 1 exact=true bound=1" {
		t.Fatalf("after inserting {0,1}: %q", got)
	}
	c.send("update 0 1 add")
	if noop := c.readLine(); !strings.Contains(noop, "applied=false") {
		t.Fatalf("re-inserting a present edge: %q", noop)
	}

	c.send("snapshot verify")
	ver := c.readLine()
	if !strings.Contains(ver, "verified=true consistent=true") {
		t.Fatalf("verify snapshot = %q", ver)
	}

	c.send("update 0 1 flip")
	if e := c.readLine(); !strings.HasPrefix(e, "err want") {
		t.Fatalf("bad op answered %q", e)
	}
	c.send("update 0 999 add")
	if e := c.readLine(); !strings.HasPrefix(e, "err") {
		t.Fatalf("out-of-range update answered %q", e)
	}
}

// A static server must refuse the dynamic verbs without dying.
func TestStaticServerRefusesUpdates(t *testing.T) {
	srv := New(testOracle(t), Config{})
	lines := runScript(t, srv, "update 1 2 add\nsnapshot\ndist 1 2\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	for _, l := range lines[:2] {
		if !strings.HasPrefix(l, "err updates not supported") {
			t.Fatalf("static server answered %q", l)
		}
	}
	if strings.HasPrefix(lines[2], "err") {
		t.Fatalf("connection unusable after refused update: %q", lines[2])
	}
}

// The binary MsgUpdate/MsgSnap path through a real wire.Client, plus the
// updated-state visibility guarantee across protocol flavors.
func TestBinaryUpdateSnapshot(t *testing.T) {
	srv := testDynamicServer(t)
	addr, _, _ := startTCP(t, srv)
	c, err := wire.Dial(addr, wire.ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	info0, err := c.Snap(false)
	if err != nil || info0.N != 64 {
		t.Fatalf("Snap = (%+v, %v)", info0, err)
	}
	res, err := c.Update(2, 60, true)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if res.Applied {
		// The edge was absent; distance must now be 1.
		a, err := c.Dist(2, 60)
		if err != nil || a.Dist != 1 {
			t.Fatalf("Dist(2,60) after insert = (%+v, %v)", a, err)
		}
	}
	info1, err := c.Snap(true)
	if err != nil {
		t.Fatalf("Snap verify: %v", err)
	}
	if !info1.Verified || !info1.Consistent {
		t.Fatalf("verify snapshot: %+v", info1)
	}
	if res.Applied && (info1.Seq != info0.Seq+1 || info1.M != info0.M+1) {
		t.Fatalf("seq/m did not advance: %+v -> %+v", info0, info1)
	}
	if _, err := c.Update(2, 64, true); err == nil {
		t.Fatal("out-of-range binary update succeeded")
	}
	if !c.Healthy() {
		t.Fatal("remote error killed the connection")
	}
}

// A static binary server refuses MsgUpdate with MsgErr and keeps serving.
func TestBinaryStaticRefusesUpdates(t *testing.T) {
	srv := New(testOracle(t), Config{})
	addr, _, _ := startTCP(t, srv)
	c, err := wire.Dial(addr, wire.ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Update(1, 2, true); err == nil {
		t.Fatal("static server accepted an update")
	} else if !strings.Contains(err.Error(), "updates not supported") {
		t.Fatalf("unexpected refusal: %v", err)
	}
	if _, err := c.Snap(false); err == nil {
		t.Fatal("static server answered a snapshot")
	}
	if a, err := c.Dist(1, 2); err != nil || a.U != 1 {
		t.Fatalf("Dist after refusals = (%+v, %v)", a, err)
	}
}

// Concurrent binary updates and queries must stay consistent: the final
// verify snapshot proves the maintained spanner equals a from-scratch
// rebuild after racing traffic.
func TestBinaryConcurrentUpdatesAndQueries(t *testing.T) {
	srv := testDynamicServer(t)
	addr, _, _ := startTCP(t, srv)
	upd, err := wire.Dial(addr, wire.ClientOptions{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer upd.Close()
	qry, err := wire.Dial(addr, wire.ClientOptions{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer qry.Close()

	done := make(chan error, 1)
	go func() {
		r := rng.New(8)
		for i := 0; i < 60; i++ {
			u, v := int32(r.Intn(64)), int32(r.Intn(64))
			if u == v {
				continue
			}
			if _, err := upd.Update(u, v, r.Bernoulli(0.5)); err != nil {
				done <- fmt.Errorf("update %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	r := rng.New(9)
	for i := 0; i < 120; i++ {
		u, v := int32(r.Intn(64)), int32(r.Intn(64))
		if _, err := qry.Dist(u, v); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	info, err := upd.Snap(true)
	if err != nil || !info.Consistent {
		t.Fatalf("final verify snapshot = (%+v, %v)", info, err)
	}
}
