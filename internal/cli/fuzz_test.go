package cli

import (
	"strings"
	"testing"
)

// FuzzPolicySpec shakes the policy and policy-list spec parsers with
// arbitrary input: no input may panic; any accepted policy must name
// itself and clone; any accepted list must re-validate member-wise
// (every expanded spec parses individually, no duplicates). The
// committed corpus (testdata/fuzz/FuzzPolicySpec) seeds the valid
// grammar plus the historically sharp edges: empty segments, huge
// numbers, trailing colons, comma lists, non-finite scorer weights.
func FuzzPolicySpec(f *testing.F) {
	for _, s := range []string{
		"", "easy", "fcfs", "unicef", "smallest", "tournament",
		"metric:0.5:4", "metric:0.5:4:conservative",
		"adaptive:2d:1000", "whatif:bsld:4:observe",
		"fairshare:12", "relaxed:15", "utility:(wait/walltime)^3*nodes",
		"fcfs,easy,metric:0.5:4", "fcfs,,easy", "metric::",
		"metric:1e309:4", "adaptive:bf:99999999999999999999",
		"whatif:blend:", "utility:wait^", "a,b,c,d,e,f,g,h,i,j",
		"metric:0.5:4,metric:0.5:4", ":::::", "fairshare:-0",
		"metric:wait=0.5+large=0.25+short=0.25:4", "metric:wait=0.5++short=NaN:4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if s, err := ParsePolicy(spec); err == nil {
			if s == nil || s.Name() == "" {
				t.Fatalf("ParsePolicy(%q) accepted with empty name", spec)
			}
			if c := s.Clone(); c == nil || c.Name() != s.Name() {
				t.Fatalf("ParsePolicy(%q): clone mismatch", spec)
			}
		}
		specs, err := ParsePolicyList(spec)
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(specs))
		for _, p := range specs {
			if strings.TrimSpace(p) != p || p == "" {
				t.Fatalf("ParsePolicyList(%q) returned unnormalized spec %q", spec, p)
			}
			if seen[p] {
				t.Fatalf("ParsePolicyList(%q) returned duplicate %q", spec, p)
			}
			seen[p] = true
			if _, err := ParsePolicy(p); err != nil {
				t.Fatalf("ParsePolicyList(%q) expanded to unparseable %q: %v", spec, p, err)
			}
		}
	})
}
