//! The hardware event taxonomy.
//!
//! Every energy number the paper reports is "an event count times a
//! circuit constant" (§V–VI): the variants here are exactly the events the
//! analytical model in `inca-sim` prices, so a functional run's counters
//! can be cross-checked against the closed-form totals.

/// One class of hardware-meaningful event.
///
/// Counter identity, not payload: each variant indexes a slot in the
/// capture's counter block (see [`crate::record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Event {
    /// One window/column read burst against one programmed plane or array
    /// (a 10 ns read pulse in Table II terms).
    XbarReadPulse,
    /// One bit-serial evaluation cycle: a (weight-bit, activation-bit)
    /// combination streamed through an array.
    BitSerialCycle,
    /// One analog-to-digital conversion of an accumulated column/plane
    /// current.
    AdcConversion,
    /// One DAC/driver event placing a kernel or input bit on a pillar or
    /// row line.
    DacDrive,
    /// One RRAM programming pulse (activation/weight write, Fig 8c
    /// one-shot scheme — a whole plane or column per pulse).
    RramProgramPulse,
    /// One cell-level write counted by the endurance tracker (wear
    /// accounting granularity, finer than [`Event::RramProgramPulse`]).
    EnduranceWrite,
    /// One SRAM buffer read beat (bus-width transfer).
    SramRead,
    /// One SRAM buffer write beat.
    SramWrite,
    /// One byte read from DRAM.
    DramReadByte,
    /// One byte written to DRAM.
    DramWriteByte,
    /// A serving request admitted into a chip queue (`inca-serve`).
    ServeRequestAdmitted,
    /// A serving request shed by admission control under overload.
    ServeRequestShed,
    /// A dynamically formed batch launched onto a chip's stacked planes.
    ServeBatchLaunched,
    /// A chip swapped resident model weights (RRAM reprogramming churn
    /// on the serving path).
    ServeReprogramSwitch,
    /// The SLO burn-rate monitor opened a violation window (`inca-serve`
    /// observability, DESIGN.md §11).
    ServeSloViolation,
    /// A packet accepted into a link's drop-tail queue (`inca-net`,
    /// one count per hop the packet traverses).
    NetPacketEnqueued,
    /// A packet dropped at a full link queue (`inca-net`).
    NetPacketDropped,
    /// A packet CE-marked by an ECN queue above its threshold
    /// (`inca-net`).
    NetEcnMarked,
    /// A flow fully acknowledged at its sender (`inca-net`).
    NetFlowCompleted,
}

/// Number of distinct events (size of a counter block).
pub const EVENT_COUNT: usize = 19;

/// All events, in counter-slot order.
pub const ALL_EVENTS: [Event; EVENT_COUNT] = [
    Event::XbarReadPulse,
    Event::BitSerialCycle,
    Event::AdcConversion,
    Event::DacDrive,
    Event::RramProgramPulse,
    Event::EnduranceWrite,
    Event::SramRead,
    Event::SramWrite,
    Event::DramReadByte,
    Event::DramWriteByte,
    Event::ServeRequestAdmitted,
    Event::ServeRequestShed,
    Event::ServeBatchLaunched,
    Event::ServeReprogramSwitch,
    Event::ServeSloViolation,
    Event::NetPacketEnqueued,
    Event::NetPacketDropped,
    Event::NetEcnMarked,
    Event::NetFlowCompleted,
];

impl Event {
    /// The counter slot this event occupies.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in snapshots and exports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Event::XbarReadPulse => "xbar_read_pulses",
            Event::BitSerialCycle => "bit_serial_cycles",
            Event::AdcConversion => "adc_conversions",
            Event::DacDrive => "dac_drives",
            Event::RramProgramPulse => "rram_program_pulses",
            Event::EnduranceWrite => "endurance_writes",
            Event::SramRead => "sram_reads",
            Event::SramWrite => "sram_writes",
            Event::DramReadByte => "dram_read_bytes",
            Event::DramWriteByte => "dram_write_bytes",
            Event::ServeRequestAdmitted => "serve_requests_admitted",
            Event::ServeRequestShed => "serve_requests_shed",
            Event::ServeBatchLaunched => "serve_batches_launched",
            Event::ServeReprogramSwitch => "serve_reprogram_switches",
            Event::ServeSloViolation => "serve_slo_violations",
            Event::NetPacketEnqueued => "net_packets_enqueued",
            Event::NetPacketDropped => "net_packets_dropped",
            Event::NetEcnMarked => "net_ecn_marked",
            Event::NetFlowCompleted => "net_flows_completed",
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, e) in ALL_EVENTS.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        for a in ALL_EVENTS {
            assert_eq!(ALL_EVENTS.iter().filter(|b| b.name() == a.name()).count(), 1);
        }
    }
}
