// AQM zoo: every queue law in the library on the paper's 10 Gbps
// bottleneck with 60 flows — the conditions under which the paper says
// DCTCP oscillates. The table shows the trade each law makes between
// queue level, oscillation, utilization, and loss.
//
//	go run ./examples/aqmzoo
package main

import (
	"fmt"
	"log"
	"time"

	"dtdctcp"
)

func main() {
	protos := []dtdctcp.Protocol{
		dtdctcp.Reno(),      // DropTail, loss-driven
		dtdctcp.Cubic(),     // DropTail, the era's Linux default
		dtdctcp.RenoECN(40), // classic ECN at K
		dtdctcp.RenoPIE(10*dtdctcp.Gbps, 200*time.Microsecond),    // delay-targeting PI controller
		dtdctcp.RenoCoDel(200*time.Microsecond, time.Millisecond), // sojourn-based dequeue law
		dtdctcp.DCTCP(40, 1.0/16),                                 // the paper's baseline
		dtdctcp.DTDCTCP(30, 50, 1.0/16),                           // the paper's contribution
	}

	fmt.Println("60 flows, 10 Gbps, 100 µs RTT, 600-packet buffer, 100 ms measured")
	fmt.Printf("%-28s %10s %8s %8s %8s %8s\n",
		"protocol", "mean(pkt)", "sd(pkt)", "util", "marks", "drops")
	for _, p := range protos {
		res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
			Protocol:   p,
			Flows:      60,
			Rate:       10 * dtdctcp.Gbps,
			RTT:        100 * time.Microsecond,
			BufferPkts: 600,
			Duration:   100 * time.Millisecond,
			Warmup:     25 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %10.1f %8.1f %7.1f%% %8d %8d\n",
			res.Protocol, res.QueueMeanPkts, res.QueueStdPkts,
			res.Utilization*100, res.Marks, res.Drops)
	}
	fmt.Println("\nthe paper's trade: DT-DCTCP holds the lowest queue *and* the")
	fmt.Println("smallest deviation without giving up utilization or taking drops")
}
