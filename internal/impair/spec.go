package impair

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the declarative form of the pipeline: a compact flag-parsable
// spec string and an equivalent JSON encoding. link.ParseFaultProfile reads
// the frame-level chaos knobs in the same two forms.
//
// Spec grammar (whitespace around tokens is ignored):
//
//	spec  := stage ( '|' stage )*
//	stage := name [ '(' args ')' ]
//	args  := key '=' value ( ',' key '=' value )*
//
// e.g. "ge(good=16,bad=3)|spike(prob=0.02,db=-3)|erase(p=0.01,block=24)".
// Values are numbers; omitted arguments take stage defaults. The JSON form is
// {"stages":[{"stage":"ge","args":{"good":16,"bad":3}}, ...]}. ParseAny
// accepts either.

// StageSpec names one stage and its arguments.
type StageSpec struct {
	Stage string             `json:"stage"`
	Args  map[string]float64 `json:"args,omitempty"`
}

// Spec is the declarative form of a Pipeline.
type Spec struct {
	Stages []StageSpec `json:"stages"`
}

// Parse parses the spec-string grammar above. The empty string is the
// identity pipeline (no stages).
func Parse(s string) (*Spec, error) {
	spec := &Spec{}
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, "|") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("impair: empty stage in spec %q", s)
		}
		st := StageSpec{}
		if open := strings.IndexByte(part, '('); open >= 0 {
			if !strings.HasSuffix(part, ")") {
				return nil, fmt.Errorf("impair: unterminated argument list in %q", part)
			}
			st.Stage = strings.TrimSpace(part[:open])
			argStr := part[open+1 : len(part)-1]
			if strings.TrimSpace(argStr) != "" {
				st.Args = map[string]float64{}
				for _, kv := range strings.Split(argStr, ",") {
					key, val, ok := strings.Cut(kv, "=")
					key = strings.TrimSpace(key)
					if !ok || !validStageName(key) {
						return nil, fmt.Errorf("impair: argument %q of stage %q is not key=value", kv, st.Stage)
					}
					f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
					if err != nil {
						return nil, fmt.Errorf("impair: argument %q of stage %q: %v", key, st.Stage, err)
					}
					if _, dup := st.Args[key]; dup {
						return nil, fmt.Errorf("impair: duplicate argument %q of stage %q", key, st.Stage)
					}
					st.Args[key] = f
				}
			}
		} else {
			st.Stage = part
		}
		if !validStageName(st.Stage) {
			return nil, fmt.Errorf("impair: malformed stage name %q", st.Stage)
		}
		spec.Stages = append(spec.Stages, st)
	}
	return spec, nil
}

// ParseAny parses either the spec-string form or (when the input starts with
// '{') the JSON form.
func ParseAny(s string) (*Spec, error) {
	trimmed := strings.TrimSpace(s)
	if strings.HasPrefix(trimmed, "{") {
		spec := &Spec{}
		if err := json.Unmarshal([]byte(trimmed), spec); err != nil {
			return nil, fmt.Errorf("impair: %v", err)
		}
		for _, st := range spec.Stages {
			if !validStageName(st.Stage) {
				return nil, fmt.Errorf("impair: malformed stage name %q", st.Stage)
			}
			for k := range st.Args {
				if !validStageName(k) {
					return nil, fmt.Errorf("impair: malformed argument name %q of stage %q", k, st.Stage)
				}
			}
		}
		return spec, nil
	}
	return Parse(s)
}

// validStageName accepts lowercase identifiers only, keeping the grammar
// unambiguous (and the fuzz corpus honest).
func validStageName(name string) bool {
	if name == "" {
		return false
	}
	for _, c := range name {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// String renders the canonical spec-string form: stages joined by '|' with
// arguments sorted by key, so Parse(s).String() is a fixed point.
func (s *Spec) String() string {
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		if len(st.Args) == 0 {
			parts[i] = st.Stage
			continue
		}
		keys := make([]string, 0, len(st.Args))
		for k := range st.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kvs := make([]string, len(keys))
		for j, k := range keys {
			kvs[j] = fmt.Sprintf("%s=%g", k, st.Args[k])
		}
		parts[i] = st.Stage + "(" + strings.Join(kvs, ",") + ")"
	}
	return strings.Join(parts, "|")
}

// Build constructs the pipeline, deriving each stage's seed from the base
// seed, its name and its occurrence count among same-named stages (see
// stageSeed). Same spec + same seed ⇒ byte-identical corrupted blocks,
// wherever the pipeline runs; a stage keeps its schedule when the stages
// around it are added or removed.
func (s *Spec) Build(seed uint64) (*Pipeline, error) {
	stages := make([]Stage, len(s.Stages))
	occ := map[string]int{}
	for i, sp := range s.Stages {
		st, err := buildStage(sp, stageSeed(seed, occ[sp.Stage], sp.Stage))
		if err != nil {
			return nil, err
		}
		occ[sp.Stage]++
		stages[i] = st
	}
	return NewPipeline(stages...), nil
}
