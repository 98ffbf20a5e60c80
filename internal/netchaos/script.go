package netchaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseScript parses the textual scenario format, one rule per line:
//
//	<window> <fault> <link> [args...]
//
//	window:  2s-5s        active from 2s to 5s (scenario time)
//	         2s+          active from 2s, open-ended
//	fault:   partition | drop | reset | dup | latency | throttle | flap
//	link:    a->b         one direction
//	         a<->b        both directions
//	         *->rm        wildcard endpoint
//	args:    p=0.3              probability (drop, reset, dup)
//	         50ms                base latency (latency) or bytes/sec (throttle)
//	         jitter=20ms         uniform extra latency (latency)
//	         period=200ms        flap period (any rule; flap defaults 200ms)
//	         duty=0.5            active fraction of each period
//
// "flap" is a partition on a duty cycle: the link goes down for
// duty*period out of every period. Blank lines and #-comments are
// ignored. Example:
//
//	# sever the replication link mid-shipment, then let it flap
//	1s-3s partition rm->repl
//	3s+   flap rm<->repl period=400ms duty=0.5
//	0s+   latency agent->rm 10ms jitter=5ms
func ParseScript(text string) (Script, error) {
	var script Script
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("netchaos: line %d: want \"<window> <fault> <link> [args]\", got %q", ln+1, line)
		}
		r, err := parseRule(fields)
		if err != nil {
			return nil, fmt.Errorf("netchaos: line %d: %w", ln+1, err)
		}
		script = append(script, r)
	}
	return script, nil
}

func parseRule(fields []string) (Rule, error) {
	var r Rule
	if err := parseWindow(fields[0], &r); err != nil {
		return r, err
	}

	kind := fields[1]
	switch kind {
	case "partition":
		r.Fault = Partition
	case "flap":
		r.Fault = Partition
		r.Period = 200 * time.Millisecond
		r.Duty = 0.5
	case "drop":
		r.Fault, r.P = Drop, 1
	case "reset":
		r.Fault, r.P = Reset, 1
	case "dup":
		r.Fault, r.P = Duplicate, 1
	case "latency":
		r.Fault = Latency
	case "throttle":
		r.Fault = Throttle
	default:
		return r, fmt.Errorf("unknown fault %q", kind)
	}

	if err := parseLink(fields[2], &r); err != nil {
		return r, err
	}

	for _, arg := range fields[3:] {
		if err := parseArg(arg, &r); err != nil {
			return r, err
		}
	}
	switch r.Fault {
	case Latency:
		if r.Latency <= 0 && r.Jitter <= 0 {
			return r, fmt.Errorf("latency rule needs a duration (e.g. 50ms)")
		}
	case Throttle:
		if r.BytesPerSec <= 0 {
			return r, fmt.Errorf("throttle rule needs a positive bytes/sec")
		}
	}
	return r, nil
}

func parseWindow(w string, r *Rule) error {
	if open := strings.HasSuffix(w, "+"); open {
		start, err := time.ParseDuration(strings.TrimSuffix(w, "+"))
		if err != nil {
			return fmt.Errorf("window %q: %w", w, err)
		}
		r.Start, r.End = start, 0
		return nil
	}
	// Durations never contain '-' (negative windows are meaningless
	// here), so the first dash splits start from end.
	i := strings.IndexByte(w, '-')
	if i < 0 {
		return fmt.Errorf("window %q: want START-END or START+", w)
	}
	start, err := time.ParseDuration(w[:i])
	if err != nil {
		return fmt.Errorf("window %q: %w", w, err)
	}
	end, err := time.ParseDuration(w[i+1:])
	if err != nil {
		return fmt.Errorf("window %q: %w", w, err)
	}
	if end <= start {
		return fmt.Errorf("window %q: end must be after start", w)
	}
	r.Start, r.End = start, end
	return nil
}

func parseLink(l string, r *Rule) error {
	if from, to, ok := strings.Cut(l, "<->"); ok {
		r.From, r.To, r.Bidir = from, to, true
	} else if from, to, ok := strings.Cut(l, "->"); ok {
		r.From, r.To = from, to
	} else {
		return fmt.Errorf("link %q: want a->b or a<->b", l)
	}
	if r.From == "" || r.To == "" {
		return fmt.Errorf("link %q: empty endpoint", l)
	}
	return nil
}

func parseArg(arg string, r *Rule) error {
	if key, val, ok := strings.Cut(arg, "="); ok {
		switch key {
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("p=%q: want a probability in [0,1]", val)
			}
			r.P = p
		case "jitter":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("jitter=%q: %w", val, err)
			}
			r.Jitter = d
		case "period":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("period=%q: %w", val, err)
			}
			r.Period = d
		case "duty":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f > 1 {
				return fmt.Errorf("duty=%q: want a fraction in (0,1]", val)
			}
			r.Duty = f
		default:
			return fmt.Errorf("unknown argument %q", arg)
		}
		return nil
	}
	// Positional argument: a duration for latency rules, bytes/sec for
	// throttle rules.
	switch r.Fault {
	case Latency:
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fmt.Errorf("latency %q: %w", arg, err)
		}
		r.Latency = d
	case Throttle:
		n, err := strconv.Atoi(arg)
		if err != nil {
			return fmt.Errorf("throttle %q: want bytes/sec", arg)
		}
		r.BytesPerSec = n
	default:
		return fmt.Errorf("unexpected argument %q for %s rule", arg, r.Fault)
	}
	return nil
}
