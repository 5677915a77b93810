//! Service time, days of week, and the paper's time intervals.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Seconds since midnight of the service day.
///
/// GTFS allows times past 24:00:00 for trips that run over midnight, so the
/// inner value may exceed 86 400. Arithmetic saturates rather than wraps —
/// a clamped journey time is a benign error, an overflowed one is not.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Stime(pub u32);

impl Stime {
    /// From hours/minutes/seconds. Hours may exceed 23 per GTFS.
    pub const fn hms(h: u32, m: u32, s: u32) -> Self {
        Stime(h * 3600 + m * 60 + s)
    }

    /// From whole hours.
    pub const fn hours(h: u32) -> Self {
        Stime(h * 3600)
    }

    /// Total seconds since midnight.
    #[inline]
    pub const fn secs(self) -> u32 {
        self.0
    }

    /// `self + dur` seconds, saturating.
    #[inline]
    pub fn plus(self, dur: u32) -> Stime {
        Stime(self.0.saturating_add(dur))
    }

    /// `self + dur` seconds, or `None` when the sum overflows the clock or
    /// lands on its last second, `u32::MAX`: no half-open [`TimeInterval`]
    /// holds that second, so a call parked there would never depart. A
    /// timetable edit shifts its times with this, never with [`Self::plus`].
    #[inline]
    pub fn checked_plus(self, dur: u32) -> Option<Stime> {
        self.0.checked_add(dur).filter(|&t| t != u32::MAX).map(Stime)
    }

    /// Seconds from `self` to `later`; 0 when `later` precedes `self`.
    #[inline]
    pub fn until(self, later: Stime) -> u32 {
        later.0.saturating_sub(self.0)
    }

    /// Parses `HH:MM:SS` (hours may be ≥ 24, e.g. `25:10:00`).
    pub fn parse(s: &str) -> Result<Stime, String> {
        let mut it = s.split(':');
        let (h, m, sec) = match (it.next(), it.next(), it.next(), it.next()) {
            (Some(h), Some(m), Some(sec), None) => (h, m, sec),
            _ => return Err(format!("bad time {s:?}: expected HH:MM:SS")),
        };
        let h: u32 = h.trim().parse().map_err(|_| format!("bad hours in {s:?}"))?;
        let m: u32 = m.trim().parse().map_err(|_| format!("bad minutes in {s:?}"))?;
        let sec: u32 = sec.trim().parse().map_err(|_| format!("bad seconds in {s:?}"))?;
        if m > 59 || sec > 59 {
            return Err(format!("minutes/seconds out of range in {s:?}"));
        }
        h.checked_mul(3600)
            .and_then(|hs| hs.checked_add(m * 60 + sec))
            .map(Stime)
            .ok_or_else(|| format!("hours out of range in {s:?}"))
    }
}

impl fmt::Display for Stime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}:{:02}", self.0 / 3600, (self.0 / 60) % 60, self.0 % 60)
    }
}

/// Day of the week a service runs (GTFS `calendar.txt` columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DayOfWeek {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl DayOfWeek {
    /// All seven days, Monday first.
    pub const ALL: [DayOfWeek; 7] = [
        DayOfWeek::Monday,
        DayOfWeek::Tuesday,
        DayOfWeek::Wednesday,
        DayOfWeek::Thursday,
        DayOfWeek::Friday,
        DayOfWeek::Saturday,
        DayOfWeek::Sunday,
    ];

    /// Index 0..=6, Monday = 0.
    pub const fn index(self) -> usize {
        match self {
            DayOfWeek::Monday => 0,
            DayOfWeek::Tuesday => 1,
            DayOfWeek::Wednesday => 2,
            DayOfWeek::Thursday => 3,
            DayOfWeek::Friday => 4,
            DayOfWeek::Saturday => 5,
            DayOfWeek::Sunday => 6,
        }
    }
}

impl fmt::Display for DayOfWeek {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DayOfWeek::Monday => "Monday",
            DayOfWeek::Tuesday => "Tuesday",
            DayOfWeek::Wednesday => "Wednesday",
            DayOfWeek::Thursday => "Thursday",
            DayOfWeek::Friday => "Friday",
            DayOfWeek::Saturday => "Saturday",
            DayOfWeek::Sunday => "Sunday",
        };
        f.write_str(s)
    }
}

/// The paper's time interval `v = [t_s, t_e, t_d]` (§III-A): a labeled
/// window on a given day for which accessibility is assessed, e.g.
/// `[7am, 9am, Tuesday]` — the weekday AM peak.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeInterval {
    /// Window start `t_s`.
    pub start: Stime,
    /// Window end `t_e` (exclusive).
    pub end: Stime,
    /// Day of week `t_d`.
    pub day: DayOfWeek,
    /// Human label, e.g. `"AM peak"`.
    pub label: String,
}

impl TimeInterval {
    /// Creates a labeled interval. Panics when `end <= start`; a zero-length
    /// interval can never contain a trip start time and always indicates a
    /// configuration bug.
    pub fn new(start: Stime, end: Stime, day: DayOfWeek, label: impl Into<String>) -> Self {
        assert!(end > start, "interval end must be after start");
        TimeInterval { start, end, day, label: label.into() }
    }

    /// The evaluation interval used throughout the paper: weekday AM peak,
    /// 07:00–09:00 on Tuesday.
    pub fn am_peak() -> Self {
        TimeInterval::new(Stime::hours(7), Stime::hours(9), DayOfWeek::Tuesday, "AM peak")
    }

    /// PM peak 16:30–18:30 on Tuesday (used for multi-interval examples).
    pub fn pm_peak() -> Self {
        TimeInterval::new(
            Stime::hms(16, 30, 0),
            Stime::hms(18, 30, 0),
            DayOfWeek::Tuesday,
            "PM peak",
        )
    }

    /// Inter-peak 11:00–13:00 on Tuesday.
    pub fn midday() -> Self {
        TimeInterval::new(Stime::hours(11), Stime::hours(13), DayOfWeek::Tuesday, "midday")
    }

    /// True when `t` falls in `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Stime) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length in fractional hours.
    #[inline]
    pub fn duration_hours(&self) -> f64 {
        (self.end.0 - self.start.0) as f64 / 3600.0
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}–{} {}]", self.label, self.start, self.end, self.day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hms_and_secs() {
        assert_eq!(Stime::hms(7, 30, 15).secs(), 7 * 3600 + 30 * 60 + 15);
        assert_eq!(Stime::hours(24).secs(), 86_400);
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["00:00:00", "07:05:09", "23:59:59", "25:10:00"] {
            let t = Stime::parse(s).unwrap();
            assert_eq!(t.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Stime::parse("7:5").is_err());
        assert!(Stime::parse("aa:bb:cc").is_err());
        assert!(Stime::parse("07:61:00").is_err());
        assert!(Stime::parse("07:00:75").is_err());
        assert!(Stime::parse("07:00:00:00").is_err());
        // 1193047 h * 3600 overflows u32: an error, never a wrapped small time.
        assert!(Stime::parse("1193047:00:00").unwrap_err().contains("hours out of range"));
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Stime(u32::MAX).plus(10), Stime(u32::MAX));
        assert_eq!(Stime(100).until(Stime(40)), 0);
        assert_eq!(Stime(40).until(Stime(100)), 60);
    }

    #[test]
    fn checked_shift_refuses_the_last_second_and_overflow() {
        assert_eq!(Stime(100).checked_plus(20), Some(Stime(120)));
        assert_eq!(Stime(u32::MAX - 2).checked_plus(1), Some(Stime(u32::MAX - 1)));
        assert_eq!(Stime(u32::MAX - 2).checked_plus(2), None);
        assert_eq!(Stime(u32::MAX - 2).checked_plus(3), None);
    }

    #[test]
    fn over_midnight_times_are_legal() {
        let t = Stime::parse("26:15:00").unwrap();
        assert!(t.secs() > 86_400);
        assert_eq!(t.to_string(), "26:15:00");
    }

    #[test]
    fn day_index() {
        assert_eq!(DayOfWeek::Monday.index(), 0);
        assert_eq!(DayOfWeek::Sunday.index(), 6);
        assert_eq!(DayOfWeek::ALL.len(), 7);
    }

    #[test]
    fn interval_contains_half_open() {
        let v = TimeInterval::am_peak();
        assert!(v.contains(Stime::hours(7)));
        assert!(v.contains(Stime::hms(8, 59, 59)));
        assert!(!v.contains(Stime::hours(9)));
        assert!(!v.contains(Stime::hms(6, 59, 59)));
    }

    #[test]
    fn interval_durations() {
        let v = TimeInterval::am_peak();
        assert!((v.duration_hours() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "end must be after start")]
    fn zero_length_interval_rejected() {
        TimeInterval::new(Stime::hours(7), Stime::hours(7), DayOfWeek::Monday, "bad");
    }
}
