//! ASCII Gantt rendering of traces (the model's version of Fig. 9).

use crate::span::{Place, SpanKind};
use crate::trace::Trace;

/// Options controlling the ASCII Gantt rendering.
#[derive(Clone, Debug)]
pub struct GanttOptions {
    /// Total character width of the time axis.
    pub width: usize,
    /// Render one row per (device, lane) instead of one row per device.
    pub per_lane: bool,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions {
            width: 100,
            per_lane: false,
        }
    }
}

fn glyph(kind: SpanKind) -> char {
    match kind {
        SpanKind::H2D => 'h',
        SpanKind::D2H => 'd',
        SpanKind::P2P => 'p',
        SpanKind::Kernel => '#',
        SpanKind::HostWork => 'w',
    }
}

/// Renders an ASCII Gantt chart: one row per GPU (or per lane), kernels as
/// `#`, transfers as `h`/`d`/`p`, host work as `w`, idle as `.`.
///
/// Later spans overwrite earlier ones within a cell; with `per_lane` each
/// engine gets its own row so overlaps are visible.
pub fn render(trace: &Trace, n_gpus: usize, opts: &GanttOptions) -> String {
    let makespan = trace.makespan();
    let mut out = String::new();
    if makespan <= 0.0 {
        out.push_str("(empty trace)\n");
        return out;
    }
    let width = opts.width.max(10);
    let scale = width as f64 / makespan;

    let mut rows: Vec<(String, Vec<char>)> = Vec::new();
    let mut row_index = std::collections::BTreeMap::new();

    let mut places: Vec<Place> = (0..n_gpus as u32).map(Place::Gpu).collect();
    places.push(Place::Host);

    for place in &places {
        let spans = trace.device_spans_sorted(*place);
        if spans.is_empty() && *place == Place::Host {
            continue;
        }
        if opts.per_lane {
            for s in &spans {
                row_index
                    .entry((*place, s.lane))
                    .or_insert_with(|| {
                        rows.push((format!("{place}/{}", s.lane), vec!['.'; width]));
                        rows.len() - 1
                    });
            }
        } else {
            row_index.entry((*place, 0)).or_insert_with(|| {
                rows.push((place.to_string(), vec!['.'; width]));
                rows.len() - 1
            });
        }
        for s in spans {
            let key = if opts.per_lane {
                (*place, s.lane)
            } else {
                (*place, 0)
            };
            let row = &mut rows[row_index[&key]].1;
            let a = ((s.start * scale) as usize).min(width - 1);
            let b = (((s.end * scale).ceil()) as usize).clamp(a + 1, width);
            for cell in row.iter_mut().take(b).skip(a) {
                // Kernels win over transfers in the condensed view so that
                // compute density is what the eye sees, as in Fig. 9.
                if *cell == '.' || (glyph(s.kind) == '#') {
                    *cell = glyph(s.kind);
                }
            }
        }
    }

    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(4).max(4);
    out.push_str(&format!(
        "{:label_w$} 0{:>w$}\n",
        "",
        format!("{makespan:.4}s"),
        label_w = label_w,
        w = width - 1
    ));
    for (label, cells) in &rows {
        out.push_str(&format!(
            "{:label_w$} {}\n",
            label,
            cells.iter().collect::<String>(),
            label_w = label_w
        ));
    }
    out.push_str(&format!(
        "{:label_w$} legend: #=kernel h=HtoD d=DtoH p=PtoP w=host .=idle\n",
        "",
        label_w = label_w
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{FlowId, Label, Span};

    fn t() -> Trace {
        let mut t = Trace::new();
        t.push(Span {
            place: Place::Gpu(0),
            lane: 0,
            kind: SpanKind::H2D,
            start: 0.0,
            end: 0.5,
            bytes: 10,
            label: Label::NONE,
            flow: FlowId::NONE,
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        });
        t.push(Span {
            place: Place::Gpu(0),
            lane: 1,
            kind: SpanKind::Kernel,
            start: 0.5,
            end: 1.0,
            bytes: 0,
            label: Label::NONE,
            flow: FlowId::NONE,
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        });
        t.push(Span {
            place: Place::Gpu(1),
            lane: 1,
            kind: SpanKind::Kernel,
            start: 0.0,
            end: 1.0,
            bytes: 0,
            label: Label::NONE,
            flow: FlowId::NONE,
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        });
        t
    }

    #[test]
    fn renders_rows_per_gpu() {
        let s = render(&t(), 2, &GanttOptions::default());
        assert!(s.contains("gpu0"));
        assert!(s.contains("gpu1"));
        assert!(s.contains('#'));
        assert!(s.contains('h'));
        assert!(s.contains("legend"));
    }

    #[test]
    fn per_lane_gets_more_rows() {
        let condensed = render(&t(), 2, &GanttOptions::default());
        let lanes = render(
            &t(),
            2,
            &GanttOptions {
                per_lane: true,
                ..Default::default()
            },
        );
        assert!(lanes.lines().count() > condensed.lines().count());
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let s = render(&Trace::new(), 2, &GanttOptions::default());
        assert!(s.contains("empty trace"));
    }

    #[test]
    fn gpu1_row_is_dense_kernel() {
        let s = render(&t(), 2, &GanttOptions { width: 20, per_lane: false });
        let row = s.lines().find(|l| l.starts_with("gpu1")).unwrap();
        let body: String = row.split_whitespace().nth(1).unwrap().to_string();
        assert!(body.chars().all(|c| c == '#'), "row was {body}");
    }
}
