package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Scenario is one registered experiment: what it is called, what it
// measures, which request knobs it consumes, the schema of its primary
// result table, and how to run it.
type Scenario struct {
	// Name is the registry key, the value passed to `spinalsim -exp`.
	Name string
	// Description is the one-line summary shown by `-exp list`.
	Description string
	// Flags lists the spinalsim flag names this scenario consumes, for
	// `-exp list` and the command's usage text. Flags not listed are
	// accepted but ignored by the scenario.
	Flags []string
	// Schema is the point schema of the scenario's primary result table
	// (scenarios may emit further tables; their schemas travel with the
	// tables themselves).
	Schema []Column
	// Run executes the scenario for the given request.
	Run func(req Request) (*Result, error)
}

var registry struct {
	mu sync.Mutex
	m  map[string]*Scenario
}

// Register adds a scenario to the global registry. It panics on an empty
// name, a nil Run or a duplicate registration — all programmer errors that
// should fail at init time, not at dispatch time.
func Register(s Scenario) {
	if s.Name == "" || s.Run == nil {
		panic("sim: Register needs a name and a Run function")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.m == nil {
		registry.m = map[string]*Scenario{}
	}
	if _, dup := registry.m[s.Name]; dup {
		panic(fmt.Sprintf("sim: scenario %q registered twice", s.Name))
	}
	sc := s
	registry.m[s.Name] = &sc
}

// Lookup returns the scenario registered under name.
func Lookup(name string) (*Scenario, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	sc, ok := registry.m[name]
	return sc, ok
}

// Scenarios returns every registered scenario, sorted by name.
func Scenarios() []*Scenario {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]*Scenario, 0, len(registry.m))
	for _, sc := range registry.m {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted names of every registered scenario.
func Names() []string {
	scs := Scenarios()
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.Name
	}
	return out
}

// Suggest returns registered names close to the (unknown) name, nearest
// first: substring matches, then names within a small edit distance. It is
// what turns `-exp chaossok` into `did you mean "chaossoak"?`.
func Suggest(name string) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	for _, known := range Names() {
		if containsFold(known, name) || containsFold(name, known) {
			cands = append(cands, cand{known, 0})
			continue
		}
		if d := editDistance(name, known); d <= 2 || (d <= 3 && len(name) >= 6) {
			cands = append(cands, cand{known, d})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	out := make([]string, 0, len(cands))
	for _, c := range cands {
		out = append(out, c.name)
	}
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}

// containsFold reports whether s contains sub, ASCII case-insensitively.
func containsFold(s, sub string) bool {
	if len(sub) == 0 || len(sub) > len(s) {
		return len(sub) == 0
	}
	lower := func(b byte) byte {
		if 'A' <= b && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
outer:
	for i := 0; i+len(sub) <= len(s); i++ {
		for j := 0; j < len(sub); j++ {
			if lower(s[i+j]) != lower(sub[j]) {
				continue outer
			}
		}
		return true
	}
	return false
}

// editDistance is the Levenshtein distance between two short strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
