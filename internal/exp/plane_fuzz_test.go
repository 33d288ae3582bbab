package exp

import "testing"

// FuzzParsePlaneSpecs feeds arbitrary plane lists to ParsePlaneSpecs. It
// must never panic, and an accepted list is non-empty with every topology
// in its canonical spelling.
func FuzzParsePlaneSpecs(f *testing.F) {
	for _, s := range []string{
		"ft:updown,hyperx:parx", "ft:ftree,hx:parx", "ft:ftree,hyperx:parx",
		"fattree:ftree:rail0, hx:dfsssp:rail1", "hx:hxmin", " , ft:sssp ,",
		"", ",", "ft", "torus:dor", "ft:a:b:c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParsePlaneSpecs(s)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("ParsePlaneSpecs(%q) accepted an empty list", s)
		}
		for _, sp := range specs {
			if sp.Topology != "fattree" && sp.Topology != "hyperx" {
				t.Fatalf("ParsePlaneSpecs(%q) gave non-canonical topology %q", s, sp.Topology)
			}
		}
	})
}
