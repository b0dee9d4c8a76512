package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this test binary as the CLI: with the
// marker set in the environment the child runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SSMFP_SIM_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownNamesExitTwo: an unknown -daemon, like an unknown -policy,
// is refused before the run with exit status 2 and one line on stderr,
// not a panic.
func TestUnknownNamesExitTwo(t *testing.T) {
	for _, flag := range []string{"-daemon", "-policy"} {
		cmd := exec.Command(os.Args[0], flag, "bogus")
		cmd.Env = append(os.Environ(), "SSMFP_SIM_CHILD=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s bogus: err = %v, want exit status 2; output:\n%s", flag, err, out)
		}
		msg := strings.TrimSpace(string(out))
		if strings.Count(msg, "\n") != 0 || !strings.HasPrefix(msg, "ssmfp-sim: ") || !strings.Contains(msg, `"bogus"`) {
			t.Fatalf("%s bogus printed %q, want one ssmfp-sim line naming the value", flag, msg)
		}
	}
}
