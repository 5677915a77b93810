//! Mean Teacher (Tarvainen & Valpola, NeurIPS 2017) adapted to regression.
//!
//! A *student* MLP trains on the labeled loss plus a consistency term: its
//! predictions on noise-perturbed unlabeled inputs must match those of a
//! *teacher* whose weights are an exponential moving average of the
//! student's. The EMA teacher provides the final predictions.

use crate::linalg::Matrix;
use crate::mlp::Net;
use crate::scaler::StandardScaler;
use crate::ssr::{SsrModel, SsrTask};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Mean Teacher configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeanTeacher {
    pub hidden: [usize; 2],
    pub epochs: usize,
    pub lr: f64,
    pub batch: usize,
    /// EMA decay for the teacher weights.
    pub ema_decay: f64,
    /// Weight of the consistency loss (ramped linearly over training).
    pub consistency: f64,
    /// Std-dev of the Gaussian-ish input perturbation (in standardized
    /// feature units).
    pub noise: f64,
}

impl Default for MeanTeacher {
    fn default() -> Self {
        MeanTeacher {
            hidden: [64, 32],
            epochs: 200,
            lr: 1e-2,
            batch: 32,
            ema_decay: 0.98,
            consistency: 0.3,
            noise: 0.1,
        }
    }
}

impl SsrModel for MeanTeacher {
    fn name(&self) -> &'static str {
        "MT"
    }

    fn fit_predict(&self, task: &SsrTask<'_>) -> Matrix {
        task.validate().expect("invalid SSR task");
        let all_x = task.x_labeled.vstack(task.x_unlabeled);
        let xs = StandardScaler::fit(&all_x);
        let ys = StandardScaler::fit(task.y_labeled);
        let xl = xs.transform(task.x_labeled);
        let yl = ys.transform(task.y_labeled);
        let xu = xs.transform(task.x_unlabeled);

        let sizes = [xl.cols(), self.hidden[0], self.hidden[1], yl.cols()];
        let mut rng = StdRng::seed_from_u64(task.seed ^ 0x7EAC);
        let mut student = Net::new(&sizes, &mut rng);
        let mut teacher = student.clone();

        let n_l = xl.rows();
        let n_u = xu.rows();
        let mut order_l: Vec<usize> = (0..n_l).collect();
        let mut order_u: Vec<usize> = (0..n_u).collect();

        for epoch in 0..self.epochs {
            let ramp = (epoch + 1) as f64 / self.epochs as f64;
            let cons_w = self.consistency * ramp;
            order_l.shuffle(&mut rng);
            order_u.shuffle(&mut rng);
            let batches = order_l.chunks(self.batch.max(1)).count().max(1);
            let u_per_batch = (n_u / batches).max(1);
            let mut u_cursor = 0usize;
            for chunk in order_l.chunks(self.batch.max(1)) {
                // Supervised step.
                student.train_rows(&xl, &yl, chunk, self.lr, 1.0);

                // Consistency step on an unlabeled slice.
                if n_u > 0 && cons_w > 0.0 {
                    let uid: Vec<usize> =
                        (0..u_per_batch).map(|k| order_u[(u_cursor + k) % n_u]).collect();
                    u_cursor = (u_cursor + u_per_batch) % n_u;
                    let ux = xu.select_rows(&uid);
                    // Teacher targets on clean inputs; student sees noise.
                    let target = teacher.predict(&ux);
                    let mut noisy = ux;
                    for v in noisy.data_mut() {
                        *v += rng.random_range(-self.noise..self.noise);
                    }
                    student.train_step(&noisy, target, self.lr, cons_w);
                }
                teacher.ema_from(&student, self.ema_decay);
            }
        }
        ys.inverse_transform(teacher.predict(&xu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssr::fixtures;

    #[test]
    fn beats_mean_baseline() {
        let m = MeanTeacher::default();
        let err = fixtures::model_mae(&m, 80, 40, 3);
        let base = fixtures::mean_baseline_mae(80, 40, 3);
        assert!(err < base * 0.5, "MT {err} vs baseline {base}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xl, yl, xu, _) = fixtures::synthetic(30, 20, 9);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 2 };
        let short = MeanTeacher { epochs: 20, ..Default::default() };
        assert_eq!(short.fit_predict(&task), short.fit_predict(&task));
    }

    #[test]
    fn consistency_uses_unlabeled_data() {
        // With vs without consistency: predictions must differ, proving the
        // unlabeled branch participates in training.
        let (xl, yl, xu, _) = fixtures::synthetic(25, 40, 14);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 4 };
        let with = MeanTeacher { epochs: 30, ..Default::default() }.fit_predict(&task);
        let without =
            MeanTeacher { epochs: 30, consistency: 0.0, ..Default::default() }.fit_predict(&task);
        assert_ne!(with, without);
    }

    #[test]
    fn output_shape() {
        let (xl, yl, xu, _) = fixtures::synthetic(15, 6, 0);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 0 };
        let p = MeanTeacher { epochs: 3, ..Default::default() }.fit_predict(&task);
        assert_eq!((p.rows(), p.cols()), (6, 2));
    }
}
