//! Prompt engineering substrate: the study's presence questions in four
//! languages, parallel vs. sequential prompt packaging, and robust response
//! parsing.
//!
//! English question texts are verbatim from the paper's Table II; Spanish,
//! Chinese, and Bengali texts follow Appendix B.
//!
//! # Examples
//!
//! ```
//! use nbhd_prompt::{parse_response, Language, Prompt, PromptMode};
//!
//! let prompt = Prompt::build(Language::English, PromptMode::Parallel);
//! // ... send prompt.messages[0].text to a vision model with the image ...
//! let parsed = parse_response("Yes, No, No, Yes, No, Yes", prompt.language, 6);
//! let presence = parsed.to_presence(&prompt.question_order());
//! assert_eq!(presence.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lang;
mod parse;
mod question;
mod template;

pub use lang::Language;
pub use parse::{parse_response, ParsedAnswers};
pub use question::{format_instruction, question_text, PROMPT_ORDER};
pub use template::{Prompt, PromptMessage, PromptMode};
