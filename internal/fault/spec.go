package fault

// The chaos spec grammar of `xviewd -chaos` and rxview.EnableChaos:
//
//	spec  := arm (";" arm)*
//	arm   := point [":" opt ("," opt)*]
//	opt   := "after=" N | "every=" N | "count=" N | "prob=" F
//	       | "latency=" DUR
//
// e.g. "wal.fsync:after=100,count=5;wal.slow-io:latency=5ms,every=10".
// A bare point with no options fires on every hit.

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the chaos spec grammar into rules for NewPlan.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, arm := range strings.Split(spec, ";") {
		arm = strings.TrimSpace(arm)
		if arm == "" {
			continue
		}
		name, opts, _ := strings.Cut(arm, ":")
		r := Rule{Point: named(strings.TrimSpace(name))}
		if !Registered(r.Point) {
			return nil, fmt.Errorf("fault: unknown point %q in spec (catalog: %v)", name, catalog)
		}
		if opts != "" {
			for _, opt := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
				if !ok {
					return nil, fmt.Errorf("fault: spec option %q is not key=value", opt)
				}
				if err := setOpt(&r, key, val); err != nil {
					return nil, err
				}
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty chaos spec")
	}
	return rules, nil
}

func setOpt(r *Rule, key, val string) error {
	switch key {
	case "after", "every", "count":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("fault: spec %s=%q: want a non-negative integer", key, val)
		}
		switch key {
		case "after":
			r.After = n
		case "every":
			r.Every = n
		case "count":
			r.Count = n
		}
	case "prob":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f >= 0 && f <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: spec prob=%q: want a probability in [0,1]", val)
		}
		r.Prob = f
	case "latency":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("fault: spec latency=%q: want a duration", val)
		}
		r.Latency = d
	default:
		return fmt.Errorf("fault: unknown spec option %q (want after, every, count, prob or latency)", key)
	}
	return nil
}
