// Package revbench reads the process's peak resident set, the figure
// the benchmark reports as peak_rss_mib.
package revbench

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// PeakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc. It returns 0 with no error on platforms without procfs.
func PeakRSSBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("revbench: VmHWM not found in /proc/self/status")
}
