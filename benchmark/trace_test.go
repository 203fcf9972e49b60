package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedAndSiblingSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps its sibling a: [10,50) is covered once
		{ID: 4, Parent: 2, Name: "a.inner", Start: 12, End: 20},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped at 100
		{ID: 6, Parent: 1, Name: "d", Start: 60, End: 70},
		{ID: 7, Name: "other", Start: 5, End: 6}, // no parent: touches nobody's self time
	}
	want := map[int]int64{1: 100 - 40 - 10 - 10, 2: 20 - 8, 3: 30, 4: 8, 5: 30, 6: 10, 7: 1}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	by := selfByName(spans)
	if len(by["root"]) != 1 || by["root"][0] != 40 {
		t.Errorf("selfByName[root] = %v", by["root"])
	}
}

func TestTracerRecordsOnlyWhileEnabled(t *testing.T) {
	var off *tracer // the untraced run
	if id := off.begin("x", 0, 1); id != 0 || off.on() {
		t.Fatal("a nil tracer must record nothing")
	}
	off.finish(0)
	off.enable(true)

	tr := newTracer()
	root := tr.begin("client.optimize", 0, 7)
	child := tr.add("serve.optimize", root, 7, time.Now(), time.Now().Add(time.Millisecond))
	tr.finish(root)
	tr.enable(false)
	if id := tr.begin("dropped", 0, 8); id != 0 {
		t.Error("a disabled tracer handed out a span")
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].ID != child || spans[0].Req != 7 || spans[0].End < spans[0].Start {
		t.Fatalf("spans: %+v", spans)
	}

	path, err := writeTrace(t.TempDir(), "unit", spans)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"name":"serve.optimize"`) || !strings.Contains(lines[1], `"parent":1`) {
		t.Errorf("trace file:\n%s", data)
	}

	adopted := adopt([]span{
		{ID: 1, Name: "serve.swap", Req: 3, Start: 0, End: 100},
		{ID: 2, Name: "trainer.snapshot", Start: 10, End: 20},
		{ID: 3, Name: "trainer.snapshot", Start: 150, End: 160},
	}, "trainer.snapshot", "serve.swap")
	if adopted[1].Parent != 1 || adopted[1].Req != 3 || adopted[2].Parent != 0 {
		t.Errorf("adopt: %+v", adopted)
	}
}
