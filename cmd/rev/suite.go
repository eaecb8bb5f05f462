package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/browser"
	"repro/internal/cascade"
	"repro/internal/testsuite"
)

// suiteCmd runs the 250-configuration browser revocation test suite
// against every modelled browser/OS profile and prints the paper's
// Table 2 matrix. With -profile it prints per-case outcomes for a single
// profile instead; adding -cascade installs a fresh suite-built filter
// cascade and evaluates that profile fully offline.
func suiteCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	profileName := fs.String("profile", "", "print per-case outcomes for this profile only")
	useCascade := fs.Bool("cascade", false, "install a suite-built filter cascade and run the profile offline (requires -profile)")
	return func(stdout, stderr io.Writer) error {
		if *useCascade && *profileName == "" {
			return errors.New("-cascade requires -profile")
		}
		fmt.Fprintln(stderr, "building test suite...")
		suite, err := testsuite.Build(testsuite.Generate())
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "built %d cases\n", len(suite.Cases))

		if *profileName == "" {
			m, err := suite.Matrix(browser.All())
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, m.Render())
			fmt.Fprintln(stdout, "\nlegend: Y=passes in all cases, N=fails, ev=passes only for EV leaves,")
			fmt.Fprintln(stdout, "        a=warns instead of rejecting, i=requests staple but ignores it, -=not applicable")
			return nil
		}
		var profile *browser.Profile
		for _, p := range browser.All() {
			if p.Name == *profileName {
				profile = p
			}
		}
		if profile == nil {
			fmt.Fprintf(stderr, "rev suite: unknown profile %q; available:\n", *profileName)
			for _, p := range browser.All() {
				fmt.Fprintf(stderr, "  %s\n", p.Name)
			}
			return exitStatus{code: 1}
		}
		var rep *testsuite.Report
		if *useCascade {
			flt, err := suite.BuildCascade(cascade.BuildConfig{
				Epoch:   1,
				BuiltAt: suite.Clock.Now(),
				MaxAge:  48 * time.Hour,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "cascade: %d levels, %d revoked keys, %d bytes\n",
				flt.NumLevels(), flt.NumRevoked(), flt.SizeBytes())
			rep, err = suite.RunCascade(profile, flt)
		} else {
			rep, err = suite.Run(profile)
		}
		if err != nil {
			return err
		}
		for _, id := range suite.SortedCaseIDs() {
			fmt.Fprintf(stdout, "%-55s %s\n", id, rep.Outcomes[id])
		}
		return nil
	}
}
