package main

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// A panic on one of dcload's goroutines must not kill the process from
// that goroutine: Wait returns only after every goroutine has finished,
// then re-raises the panic on the caller as a *graph.WorkerPanic carrying
// the original value and the panicking goroutine's stack.
func TestGroupReraisesPanicAfterAllReturn(t *testing.T) {
	var g group
	var finished atomic.Int64
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		g.Go(func() {
			<-release
			finished.Add(1)
		})
	}
	g.Go(func() {
		close(release)
		panic("injected load-worker panic")
	})

	defer func() {
		v := recover()
		wp, ok := v.(*graph.WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *graph.WorkerPanic", v, v)
		}
		if wp.Value != "injected load-worker panic" {
			t.Fatalf("panic value %v", wp.Value)
		}
		if !strings.Contains(string(wp.Stack), "TestGroupReraisesPanicAfterAllReturn") {
			t.Fatalf("worker stack does not name the panicking function:\n%s", wp.Stack)
		}
		if n := finished.Load(); n != 3 {
			t.Fatalf("Wait re-raised with %d of 3 other goroutines finished", n)
		}
	}()
	g.Wait()
	t.Fatal("Wait returned normally after a goroutine panicked")
}

// Without a panic, Wait is a plain WaitGroup wait.
func TestGroupWaitsForAll(t *testing.T) {
	var g group
	var n atomic.Int64
	for i := 0; i < 4; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 4 {
		t.Fatalf("Wait returned with %d of 4 goroutines done", n.Load())
	}
}
