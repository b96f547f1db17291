package telemetry

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// durs builds n sample instants at 1µs, 2µs, ...
func durs(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Microsecond
	}
	return out
}

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	r.Gauge("y", func() float64 { return 1 })
	if r.Len() != 0 || r.Names() != nil || r.Read() != nil {
		t.Error("nil registry must be empty")
	}
	if _, ok := r.Value("y"); ok {
		t.Error("nil registry must not resolve names")
	}
}

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("drops")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("Value = %d, want 42", c.Value())
	}
	if v, ok := r.Value("drops"); !ok || v != 42 {
		t.Errorf("registry Value = %v, %v", v, ok)
	}
}

func TestReadKeepsRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z", func() float64 { return 3 })
	r.Counter("a").Add(1)
	r.Gauge("m", func() float64 { return 2 })
	wantNames := []string{"z", "a", "m"}
	names := r.Names()
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("Names = %v, want %v (registration order)", names, wantNames)
		}
	}
	row := r.Read()
	if row[0] != 3 || row[1] != 1 || row[2] != 2 {
		t.Errorf("Read = %v", row)
	}
	sorted := r.SortedNames()
	if sorted[0] != "a" || sorted[2] != "z" {
		t.Errorf("SortedNames = %v", sorted)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name should panic")
		}
	}()
	r.Gauge("x", func() float64 { return 0 })
}

func TestEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("empty name should panic")
		}
	}()
	r.Counter("")
}

func TestNilProbePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("nil probe should panic")
		}
	}()
	r.Gauge("x", nil)
}

func TestTimelineColumn(t *testing.T) {
	tl := &Timeline{
		Names: []string{"a", "b"},
		Times: durs(3),
		Rows:  [][]float64{{1, 10}, {2, 20}, {3, 30}},
	}
	vals, ok := tl.Column("b")
	if !ok || len(vals) != 3 || vals[2] != 30 {
		t.Errorf("Column(b) = %v, %v", vals, ok)
	}
	if _, ok := tl.Column("nope"); ok {
		t.Error("unknown column should report !ok")
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := &Timeline{
		Names: []string{"a", "b"},
		Times: durs(2),
		Rows:  [][]float64{{1, 0.5}, {2, 0.25}},
	}
	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "time_ns,a,b\n1000,1,0.5\n2000,2,0.25\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestGroupsKeepRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("h/z", func() float64 { return 1 })
	r.Group("h/", []string{"b", "a"}, func(dst []float64) { dst[0], dst[1] = 2, 3 })
	r.Counter("c").Add(4)
	r.Group("h/core00/", []string{"x"}, func(dst []float64) { dst[0] = 5 })
	r.Gauge("h/m", func() float64 { return 6 })
	want := []string{"h/z", "h/b", "h/a", "c", "h/core00/x", "h/m"}
	if got := r.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	if r.Len() != len(want) {
		t.Errorf("Len = %d, want %d", r.Len(), len(want))
	}
	row := r.Read()
	for i, v := range []float64{1, 2, 3, 4, 5, 6} {
		if row[i] != v {
			t.Fatalf("Read = %v, want column %d = %v", row, i, v)
		}
	}
	if v, ok := r.Value("h/a"); !ok || v != 3 {
		t.Errorf("Value(h/a) = %v, %v", v, ok)
	}
	// Names registered after a first Names call extend the list.
	r.Group("g/", []string{"y"}, func(dst []float64) { dst[0] = 7 })
	if got := r.Names(); len(got) != 7 || got[5] != "h/m" || got[6] != "g/y" {
		t.Errorf("Names after a late group = %v", got)
	}
}

func TestDuplicateAcrossGaugeAndGroupPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(r *Registry)
	}{
		{"gauge then group", func(r *Registry) {
			r.Gauge("h/nic/b", func() float64 { return 0 })
			r.Group("h/nic/", []string{"a", "b"}, func([]float64) {})
		}},
		{"group then gauge", func(r *Registry) {
			r.Group("h/nic/", []string{"a", "b"}, func([]float64) {})
			r.Gauge("h/nic/b", func() float64 { return 0 })
		}},
		{"two groups under one prefix", func(r *Registry) {
			r.Group("h/", []string{"a", "b"}, func([]float64) {})
			r.Group("h/", []string{"c"}, func([]float64) {})
			r.Group("h/", []string{"d", "a"}, func([]float64) {})
		}},
		{"within a group", func(r *Registry) {
			r.Group("h/", []string{"a", "a"}, func([]float64) {})
		}},
		{"slash in a column name", func(r *Registry) {
			r.Group("h/", []string{"core00/a"}, func([]float64) {})
		}},
		{"prefix without a trailing slash", func(r *Registry) {
			r.Group("h", []string{"a"}, func([]float64) {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("registration should panic")
				}
			}()
			tc.register(NewRegistry())
		})
	}
}

func TestNilRegistryIgnoresGroups(t *testing.T) {
	var r *Registry
	r.Group("h/", []string{"a"}, func([]float64) { t.Error("nil registry evaluated a group") })
	if r.Len() != 0 || r.Names() != nil || r.Read() != nil {
		t.Error("nil registry must stay empty")
	}
}

func TestPrefixMatchesSprintf(t *testing.T) {
	for _, tc := range []struct {
		parent, kind string
		i, width     int
	}{
		{"host003/", "core", 7, 2},
		{"host003/", "core", 23, 2},
		{"fabric/", "port", 5, 3},
		{"", "port", 1234, 3},
		{"a/", "flow", 0, 3},
	} {
		want := fmt.Sprintf("%s%s%0*d/", tc.parent, tc.kind, tc.width, tc.i)
		if got := Prefix(tc.parent, tc.kind, tc.i, tc.width); got != want {
			t.Errorf("Prefix(%q, %q, %d, %d) = %q, want %q", tc.parent, tc.kind, tc.i, tc.width, got, want)
		}
	}
}
