package gate

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"matchmake/internal/cluster"
)

// snapshotFieldsNotExported lists the cluster.MetricsSnapshot fields
// WriteClusterMetrics leaves out on purpose, each with its reason.
var snapshotFieldsNotExported = map[string]string{
	"Elapsed": "the window length only dates the other figures; a scraper takes rates over its own interval",
}

// TestSnapshotFieldsExported is the lint that keeps /metrics complete:
// every field of cluster.MetricsSnapshot must move some mm_cluster_*
// series — setting it, and nothing else, changes what
// WriteClusterMetrics writes — or be listed, with the reason, in
// snapshotFieldsNotExported. A counter added to the snapshot and
// forgotten here fails the build instead of staying invisible to
// operators.
func TestSnapshotFieldsExported(t *testing.T) {
	render := func(s cluster.MetricsSnapshot) string {
		var buf bytes.Buffer
		WriteClusterMetrics(&buf, s)
		return buf.String()
	}
	base := cluster.MetricsSnapshot{Elastic: true} // the elastic series are written only for an elastic transport
	baseline := render(base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		s := base
		v := reflect.ValueOf(&s).Elem().Field(i)
		switch v.Interface().(type) {
		case int64, int:
			v.SetInt(7)
		case uint64:
			v.SetUint(7)
		case float64:
			v.SetFloat(0.5)
		case bool:
			v.SetBool(!v.Bool())
		case time.Duration:
			v.SetInt(int64(time.Second))
		case []int64:
			v.Set(reflect.ValueOf([]int64{5, 2}))
		default:
			t.Fatalf("MetricsSnapshot.%s has type %s, which this lint cannot set: teach it", f.Name, f.Type)
		}
		exported := render(s) != baseline
		reason, excluded := snapshotFieldsNotExported[f.Name]
		switch {
		case !exported && !excluded:
			t.Errorf("MetricsSnapshot.%s moves no series of WriteClusterMetrics: export it, or add it to snapshotFieldsNotExported with the reason", f.Name)
		case exported && excluded:
			t.Errorf("MetricsSnapshot.%s is exported but still listed in snapshotFieldsNotExported (%q)", f.Name, reason)
		}
	}
	for name := range snapshotFieldsNotExported {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("snapshotFieldsNotExported lists %s, which is not a field of MetricsSnapshot", name)
		}
	}
}
