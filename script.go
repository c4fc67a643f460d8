package arthas

import (
	"fmt"
	"strconv"
	"strings"
)

// RunScript executes a semicolon-separated request script against an
// instance and returns one result line per statement. It is the engine
// behind cmd/arthas-run and convenient for demos and tests:
//
//	lines, _ := inst.RunScript("init_; put 1 42; get 1; restart; get 1; stats")
//
// Statements are function calls with integer arguments, plus the pseudo-ops
// "restart" (crash + restart + recovery), "stats", and "mitigate FN ARGS"
// (run the reactor against the last observed trap, using restart + FN as
// the re-execution script). Traps do not abort the script; they are
// reported (and fed to the detector) so scripts can demonstrate recurring
// failures.
func (i *Instance) RunScript(script string) ([]string, error) {
	var out []string
	for _, stmt := range strings.Split(script, ";") {
		fields := strings.Fields(stmt)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "restart":
			if trap := i.Restart(); trap != nil {
				out = append(out, fmt.Sprintf("restart -> %v", trap))
			} else {
				out = append(out, "restart -> ok")
			}
			continue
		case "stats":
			out = append(out, i.Stats())
			continue
		case "mitigate":
			if len(fields) < 2 {
				return out, fmt.Errorf("mitigate needs a re-execution call: mitigate FN ARGS")
			}
			args, err := parseArgs(fields[2:], stmt)
			if err != nil {
				return out, err
			}
			// Reversion trials run on forks, Reactor.Workers at a time.
			rep, err := i.MitigateCall(fields[1], args...)
			if err != nil {
				return out, err
			}
			out = append(out, fmt.Sprintf("mitigate -> %v", rep))
			continue
		}
		args, err := parseArgs(fields[1:], stmt)
		if err != nil {
			return out, err
		}
		v, trap := i.Call(fields[0], args...)
		if trap != nil {
			_, hard := i.Observe(trap)
			out = append(out, fmt.Sprintf("%s -> TRAP %v (hard=%v)", strings.TrimSpace(stmt), trap, hard))
			continue
		}
		out = append(out, fmt.Sprintf("%s -> %d", strings.TrimSpace(stmt), v))
	}
	return out, nil
}

func parseArgs(fields []string, stmt string) ([]int64, error) {
	args := make([]int64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad argument %q in %q", f, strings.TrimSpace(stmt))
		}
		args = append(args, v)
	}
	return args, nil
}
