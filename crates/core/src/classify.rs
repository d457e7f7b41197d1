//! Lifecycle classification — the paper's primary methodological
//! contribution (Sec. VI).
//!
//! "This study is the first work to classify the deep learning jobs in
//! mature and non-mature jobs." The classification is *observational*:
//! it reads only what the scheduler log records (exit status and
//! submission interface), never the generator's hidden class label.

use sc_telemetry::record::{ExitStatus, SchedulerRecord, SubmissionInterface};
use sc_workload::LifecycleClass;

/// Classifies a finished job into its development-life-cycle stage.
///
/// The mapping mirrors Sec. VI:
///
/// - exit 0 → **mature** ("these jobs are completed with a zero exit
///   code");
/// - cancelled by the user → **exploratory** ("terminated by the user
///   before completion as they deem the jobs to be suboptimal");
/// - non-zero exit → **development** ("run while the algorithm is being
///   developed and the code is being debugged");
/// - timeout on the interactive interface → **IDE** ("interactive jobs
///   that run for a long time and timeout");
/// - timeout elsewhere → **development** (a batch job that overran its
///   limit is still unfinished work);
/// - node failure → **development** (indistinguishable from a crash in
///   the accounting log; <0.5% of jobs).
///
/// # Example
///
/// ```
/// use sc_core::classify::classify_exit;
/// use sc_telemetry::{ExitStatus, SubmissionInterface};
/// use sc_workload::LifecycleClass;
///
/// let class = classify_exit(ExitStatus::Timeout, SubmissionInterface::Interactive);
/// assert_eq!(class, LifecycleClass::Ide);
/// ```
pub fn classify_exit(exit: ExitStatus, interface: SubmissionInterface) -> LifecycleClass {
    match exit {
        ExitStatus::Completed => LifecycleClass::Mature,
        ExitStatus::Cancelled => LifecycleClass::Exploratory,
        ExitStatus::Failed => LifecycleClass::Development,
        ExitStatus::Timeout => {
            if interface == SubmissionInterface::Interactive {
                LifecycleClass::Ide
            } else {
                LifecycleClass::Development
            }
        }
        ExitStatus::NodeFailure => LifecycleClass::Development,
    }
}

/// Classifies a scheduler record.
pub fn classify_record(record: &SchedulerRecord) -> LifecycleClass {
    classify_exit(record.exit, record.interface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_telemetry::record::{JobId, UserId};

    #[test]
    fn truth_table() {
        use ExitStatus::*;
        use SubmissionInterface::*;
        assert_eq!(classify_exit(Completed, Other), LifecycleClass::Mature);
        assert_eq!(classify_exit(Completed, Interactive), LifecycleClass::Mature);
        assert_eq!(classify_exit(Cancelled, Batch), LifecycleClass::Exploratory);
        assert_eq!(classify_exit(Failed, Other), LifecycleClass::Development);
        assert_eq!(classify_exit(Timeout, Interactive), LifecycleClass::Ide);
        assert_eq!(classify_exit(Timeout, Batch), LifecycleClass::Development);
        assert_eq!(classify_exit(Timeout, Other), LifecycleClass::Development);
        assert_eq!(classify_exit(NodeFailure, Other), LifecycleClass::Development);
    }

    #[test]
    fn classification_is_total() {
        // Every (exit, interface) combination maps to some class without
        // panicking.
        for e in ExitStatus::ALL {
            for i in SubmissionInterface::ALL {
                let _ = classify_exit(e, i);
            }
        }
    }

    #[test]
    fn record_wrapper_matches_field_classification() {
        let r = SchedulerRecord {
            job_id: JobId(1),
            user: UserId(1),
            interface: SubmissionInterface::Interactive,
            gpus_requested: 1,
            cpus_requested: 4,
            mem_requested_gib: 16.0,
            submit_time: 0.0,
            start_time: 0.0,
            end_time: 43_200.0,
            time_limit: 43_200.0,
            exit: ExitStatus::Timeout,
        };
        assert_eq!(classify_record(&r), LifecycleClass::Ide);
    }
}
