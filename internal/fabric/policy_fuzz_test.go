package fabric

import "testing"

// FuzzParsePolicy feeds arbitrary specs and plane counts to ParsePolicy.
// It must never panic, and an accepted spec yields a named policy.
func FuzzParsePolicy(f *testing.F) {
	for _, spec := range []string{
		"", "single", "single:1", "sizesplit", "sizesplit:4096", "roundrobin",
		"rr", "striped", "failover", "failover:1",
		"bogus", "single:5", "single:x", "failover:2", "sizesplit:zero",
	} {
		f.Add(spec, uint8(2))
	}
	f.Fuzz(func(t *testing.T, spec string, planes uint8) {
		// Up to 16 planes: the plane count only bounds plane arguments and
		// sizes the failover order.
		pol, err := ParsePolicy(spec, int(planes%17))
		if err != nil {
			return
		}
		if pol == nil {
			t.Fatalf("ParsePolicy(%q, %d) accepted with a nil policy", spec, planes%17)
		}
		if pol.Name() == "" {
			t.Fatalf("ParsePolicy(%q, %d) accepted a policy with an empty name", spec, planes%17)
		}
	})
}
