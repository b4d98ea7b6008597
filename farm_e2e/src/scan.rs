//! A cheap check of one response line, for the closed loop.
//!
//! Decoding a whole response (`parse_response` builds the full value
//! tree, result included) costs the single closed-loop client thread as
//! much as the server spends answering a warm hit, so a full decode of
//! every response makes the client, not the server, set the measured
//! rate. The closed loop decodes fully only the responses it checks and
//! reads just the top-level `id` and `status` of the rest, skipping every
//! other value without building it. Key order does not matter.

/// The id of an `ok` response: `Some(id)` only when `line` is one JSON
/// object whose top-level `status` is `"ok"` and whose top-level `id` is
/// an integer. Anything else (another status, nested look-alikes,
/// malformed input) is `None`, and the caller falls back to a full decode.
pub fn ok_response_id(line: &str) -> Option<i64> {
    let mut s = Scanner {
        b: line.trim().as_bytes(),
        i: 0,
    };
    s.eat(b'{')?;
    let (mut id, mut ok) = (None, false);
    loop {
        let key = s.string()?;
        s.eat(b':')?;
        match key {
            b"id" => id = Some(s.integer()?),
            b"status" => ok = s.string()? == b"ok",
            _ => s.skip_value()?,
        }
        match s.next()? {
            b',' => continue,
            b'}' if s.i == s.b.len() => break,
            _ => return None,
        }
    }
    if ok {
        id
    } else {
        None
    }
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn next(&mut self) -> Option<u8> {
        let c = *self.b.get(self.i)?;
        self.i += 1;
        Some(c)
    }

    fn eat(&mut self, want: u8) -> Option<()> {
        (self.next()? == want).then_some(())
    }

    /// A string's raw bytes (escapes left as written).
    fn string(&mut self) -> Option<&'a [u8]> {
        self.eat(b'"')?;
        let start = self.i;
        loop {
            match self.next()? {
                b'"' => return self.b.get(start..self.i - 1),
                b'\\' => {
                    self.next()?;
                }
                _ => {}
            }
        }
    }

    fn integer(&mut self) -> Option<i64> {
        let start = self.i;
        while matches!(self.b.get(self.i), Some(b'-' | b'0'..=b'9')) {
            self.i += 1;
        }
        std::str::from_utf8(self.b.get(start..self.i)?)
            .ok()?
            .parse()
            .ok()
    }

    /// Skips one value of any kind, nested ones included.
    fn skip_value(&mut self) -> Option<()> {
        let mut depth = 0usize;
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.string()?;
                }
                b'{' | b'[' => {
                    depth += 1;
                    self.i += 1;
                }
                b'}' | b']' if depth > 0 => {
                    depth -= 1;
                    self.i += 1;
                }
                b',' | b'}' if depth == 0 => return Some(()),
                _ => self.i += 1,
            }
            if depth == 0 && matches!(self.b.get(self.i), Some(b',' | b'}')) {
                return Some(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rt::ser::Value;
    use sim_serve::Response;

    #[test]
    fn reads_the_id_of_ok_responses_in_any_key_order() {
        let result = Value::Object(vec![
            ("status".into(), Value::Str("shed".into())),
            ("table".into(), Value::Str("a \"quoted\" }, {".into())),
            (
                "rows".into(),
                Value::Array(vec![Value::Int(1), Value::Null]),
            ),
        ]);
        let ok = Response::ok(42, "defend", 1, 7, 0.5, result);
        assert_eq!(ok_response_id(&ok.to_json_line()), Some(42));
        assert_eq!(
            ok_response_id(r#"{"status":"ok","result":{"id":3},"id":-9}"#),
            Some(-9)
        );
    }

    #[test]
    fn refuses_everything_else() {
        let shed = Response::failure(5, "rsa", "shed", "queue_full", "full".into());
        assert_eq!(ok_response_id(&shed.to_json_line()), None);
        for line in [
            r#"{"id":1,"status":"error","result":{"status":"ok"}}"#,
            r#"{"id":1,"result":{"status":"ok"}}"#,
            r#"{"status":"ok"}"#,
            r#"{"id":"1","status":"ok"}"#,
            r#"{"id":1,"status":"ok""#,
            r#"{"id":1,"status":"ok"} trailing"#,
            r#"[1,2]"#,
            "",
        ] {
            assert_eq!(ok_response_id(line), None, "{line}");
        }
    }
}
