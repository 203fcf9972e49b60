package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"neo/internal/cluster/proto"
	"neo/internal/serve"
	"neo/pkg/neo"
)

// fieldRE matches a documented /stats field: a backticked JSON path such as
// `net_version`, `quality.window_feedbacks` or `classes[].class`.
var fieldRE = regexp.MustCompile("`([a-z0-9_.\\[\\]]+)`")

// documentedFields returns the field paths named in the first cell of every
// row of the first table after marker in doc.
func documentedFields(t *testing.T, doc, marker string) map[string]bool {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n"+marker+"\n")
	if !ok {
		t.Fatalf("OPERATIONS.md has no %q line", marker)
	}
	out := make(map[string]bool)
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		for _, m := range fieldRE.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			out[m[1]] = true
		}
	}
	return out
}

// jsonPaths records the JSON paths of struct type t the way OPERATIONS.md
// writes them — a nested object's fields as a.b, an array of objects' as
// a[].b — into leaves, and the objects and arrays on the way into inner.
// With deep false only t's own fields are listed, all as leaves. An
// embedded struct's fields count as t's own, as encoding/json writes them.
func jsonPaths(t reflect.Type, prefix string, deep bool, leaves, inner map[string]bool) {
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if t.Field(i).Anonymous && name == "" {
			jsonPaths(t.Field(i).Type, prefix, deep, leaves, inner)
			continue
		}
		ft, suffix := t.Field(i).Type, "."
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			if ft.Kind() == reflect.Slice {
				suffix = "[]."
			}
			ft = ft.Elem()
		}
		if deep && ft.Kind() == reflect.Struct {
			inner[prefix+name] = true
			jsonPaths(ft, prefix+name+suffix, deep, leaves, inner)
			continue
		}
		leaves[prefix+name] = true
	}
}

// TestStatsTablesMatchJSONTags: OPERATIONS.md's replica /stats table lists
// exactly the top-level keys of serve.Stats, its `routing` and `cluster`
// sub-tables exactly the field paths of neo.RouteStats and
// proto.ClusterStats, and the trainer's table and its `rollout` sub-table
// those of proto.TrainerStats and proto.RolloutStatus — a field added,
// renamed or removed without its row (or the reverse) fails here.
func TestStatsTablesMatchJSONTags(t *testing.T) {
	raw, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		marker string
		typ    reflect.Type
		deep   bool
	}{
		{"### Replica (`neo-serve`)", reflect.TypeOf(serve.Stats{}), false},
		{"`routing` section:", reflect.TypeOf(neo.RouteStats{}), true},
		{"`cluster` section:", reflect.TypeOf(proto.ClusterStats{}), true},
		{"### Trainer (`neo-trainer`)", reflect.TypeOf(proto.TrainerStats{}), false},
		{"`rollout` section:", reflect.TypeOf(proto.RolloutStatus{}), true},
	} {
		documented := documentedFields(t, string(raw), tc.marker)
		leaves, inner := map[string]bool{}, map[string]bool{}
		jsonPaths(tc.typ, "", tc.deep, leaves, inner)
		var problems []string
		for path := range leaves {
			if !documented[path] {
				problems = append(problems, path+" is a JSON field but has no row")
			}
		}
		for path := range documented {
			if !leaves[path] && !inner[path] {
				problems = append(problems, path+" has a row but is not a JSON field")
			}
		}
		sort.Strings(problems)
		for _, p := range problems {
			t.Errorf("OPERATIONS.md %q table: %s", tc.marker, p)
		}
	}
}
