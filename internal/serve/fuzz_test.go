package serve

import (
	"encoding/json"
	"testing"

	"neo/internal/cluster/proto"
)

// FuzzBuildQuery feeds arbitrary JSON through the request path up to the
// planner's door: bytes → proto.QuerySpec → Server.buildQuery. It must never
// panic, and whatever it accepts must be a query the rest of the system can
// rely on — valid against the catalog and identified by its own structural
// signature.
func FuzzBuildQuery(f *testing.F) {
	sys, queries := testSystem(f)
	srv := New(sys, Config{})
	defer srv.Close()

	seed := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, q := range queries {
		seed(specFor(q))
	}
	for _, spec := range badSpecs {
		seed(spec)
	}
	f.Add([]byte("{nope"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec proto.QuerySpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		q, err := srv.buildQuery(&spec)
		if err != nil {
			return
		}
		if err := q.Validate(sys.Catalog); err != nil {
			t.Fatalf("accepted query fails validation: %v", err)
		}
		if q.ID != q.Signature() {
			t.Fatalf("accepted query has ID %q, want its signature %q", q.ID, q.Signature())
		}
	})
}
