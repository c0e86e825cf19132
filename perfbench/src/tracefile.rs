//! Counts read back from the runtime's own trace ring.
//!
//! A ring round runs the ranks with `PCOMM_TRACE` set, so every rank
//! process writes its ring as Chrome trace-event JSON at teardown. The
//! writer emits a fixed, escape-free shape (one object per event, with
//! integer or boolean arguments), which this module scans without a
//! JSON library.

use std::collections::BTreeMap;

/// Per-event-name totals over one or more trace files.
#[derive(Debug, Default, Clone)]
pub struct RingCounts {
    /// Events per name.
    pub count: BTreeMap<String, u64>,
    /// Sum of each `<name>.<arg>` integer argument.
    pub arg_sum: BTreeMap<String, u64>,
    /// Events the rings overwrote before the snapshot.
    pub dropped: u64,
    /// Files read.
    pub files: usize,
}

impl RingCounts {
    /// Events named `name`.
    pub fn n(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// Mean of argument `arg` over events named `name`; `None` when
    /// there were none.
    pub fn mean_arg(&self, name: &str, arg: &str) -> Option<f64> {
        let n = self.n(name);
        let sum = self.arg_sum.get(&format!("{name}.{arg}")).copied()?;
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Add one Chrome trace document.
    pub fn add_json(&mut self, json: &str) -> Result<(), String> {
        let dropped_at = json
            .find("\"dropped\":")
            .ok_or("trace: no otherData.dropped")?;
        self.dropped += leading_int(&json[dropped_at + "\"dropped\":".len()..])
            .ok_or("trace: bad dropped count")?;
        self.files += 1;
        let events_at = json
            .find("\"traceEvents\":[")
            .ok_or("trace: no traceEvents")?;
        for obj in json[events_at..].split("{\"name\":\"").skip(1) {
            let Some((name, rest)) = obj.split_once('"') else {
                continue;
            };
            if name == "process_name" || name == "thread_name" {
                continue;
            }
            *self.count.entry(name.to_string()).or_default() += 1;
            let Some(args_at) = rest.find("\"args\":{") else {
                continue;
            };
            let args = &rest[args_at + "\"args\":{".len()..];
            let args = &args[..args.find('}').unwrap_or(args.len())];
            for pair in args.split(',') {
                let Some((k, v)) = pair.split_once(':') else {
                    continue;
                };
                if let Some(v) = leading_int(v) {
                    let key = format!("{name}.{}", k.trim_matches('"'));
                    *self.arg_sum.entry(key).or_default() += v;
                }
            }
        }
        Ok(())
    }
}

fn leading_int(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_events_and_sums_arguments() {
        let doc = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"pcomm-trace\",\
            \"dropped\":3},\"traceEvents\":[\
            {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 0\"}},\
            {\"name\":\"shard_lock_wait\",\"cat\":\"pcomm\",\"ph\":\"X\",\"ts\":1.000,\"dur\":0.100,\
            \"pid\":0,\"tid\":0,\"args\":{\"shard\":0,\"wait_ns\":100}},\
            {\"name\":\"shard_lock_wait\",\"cat\":\"pcomm\",\"ph\":\"X\",\"ts\":2.000,\"dur\":0.300,\
            \"pid\":0,\"tid\":0,\"args\":{\"shard\":0,\"wait_ns\":300}},\
            {\"name\":\"eager_pool\",\"cat\":\"pcomm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3.000,\
            \"pid\":0,\"tid\":0,\"args\":{\"shard\":0,\"hit\":true,\"bytes\":64}}]}";
        let mut c = RingCounts::default();
        c.add_json(doc).unwrap();
        c.add_json(doc).unwrap();
        assert_eq!(c.files, 2);
        assert_eq!(c.dropped, 6);
        assert_eq!(c.n("shard_lock_wait"), 4);
        assert_eq!(c.n("process_name"), 0);
        assert_eq!(c.mean_arg("shard_lock_wait", "wait_ns"), Some(200.0));
        assert_eq!(c.n("eager_pool"), 2);
        assert_eq!(c.mean_arg("ipc_doorbell", "seq"), None);
        assert!(RingCounts::default().add_json("{}").is_err());
    }
}
