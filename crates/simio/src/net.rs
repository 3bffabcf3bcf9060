//! Network timing model.

use crate::clock::Secs;

/// Timing parameters of a network link (NIC or bonded NIC pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-message latency in seconds (round-trip setup; amortized away for
    /// bulk streams).
    pub latency_s: Secs,
}

impl NetModel {
    /// Cost of streaming `bytes` as part of an established bulk transfer.
    #[inline]
    pub fn stream_cost(&self, bytes: u64) -> Secs {
        bytes as f64 / self.bandwidth
    }

    /// Cost of an individual message of `bytes` (latency + transfer).
    #[inline]
    pub fn message_cost(&self, bytes: u64) -> Secs {
        self.latency_s + self.stream_cost(bytes)
    }
}

/// Cumulative transfer statistics for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Bytes streamed.
    pub stream_bytes: u64,
    /// Individual messages sent.
    pub messages: u64,
    /// Bytes sent as messages.
    pub message_bytes: u64,
    /// Total busy time.
    pub busy_s: Secs,
}

/// A simulated network link with statistics.
#[derive(Debug, Clone)]
pub struct SimLink {
    model: NetModel,
    stats: NetStats,
}

impl SimLink {
    /// Create a link with the given model.
    pub fn new(model: NetModel) -> Self {
        SimLink {
            model,
            stats: NetStats::default(),
        }
    }

    /// The timing model.
    pub fn model(&self) -> NetModel {
        self.model
    }

    /// Statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Stream `bytes` (bulk transfer); returns the cost.
    pub fn stream(&mut self, bytes: u64) -> Secs {
        let c = self.model.stream_cost(bytes);
        self.stats.stream_bytes += bytes;
        self.stats.busy_s += c;
        c
    }

    /// Send one message of `bytes`; returns the cost.
    pub fn message(&mut self, bytes: u64) -> Secs {
        let c = self.model.message_cost(bytes);
        self.stats.messages += 1;
        self.stats.message_bytes += bytes;
        self.stats.busy_s += c;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_cost_is_linear() {
        let mut l = SimLink::new(NetModel {
            bandwidth: 1e6,
            latency_s: 0.001,
        });
        assert_eq!(l.stream(1_000_000), 1.0);
        assert_eq!(l.stream(500_000), 0.5);
        assert_eq!(l.stats().stream_bytes, 1_500_000);
    }

    #[test]
    fn message_adds_latency() {
        let mut l = SimLink::new(NetModel {
            bandwidth: 1e6,
            latency_s: 0.001,
        });
        let c = l.message(1000);
        assert!((c - 0.002).abs() < 1e-12);
        assert_eq!(l.stats().messages, 1);
    }
}
