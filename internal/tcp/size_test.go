package tcp

import (
	"testing"
	"unsafe"
)

// A connection is a sender and a receiver, each one allocation with its
// timer inside: 384 + 208 = 592 B in the runtime's size classes.

// TestSenderSize pins the sender to the 384 B size class.
func TestSenderSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Sender{}); got > 384 {
		t.Fatalf("Sender is %d B, want at most 384", got)
	}
}

// TestReceiverSize pins the receiver to the 208 B size class, its
// delayed-ACK timer, the transfer size and the completion handler
// Expect stores included.
func TestReceiverSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Receiver{}); got > 208 {
		t.Fatalf("Receiver is %d B, want at most 208", got)
	}
}
