package platform

import "github.com/htacs/ata/internal/wire"

// The platform's wire codec: reflection-free encoders and decoders for
// the payloads of the completion round trip — display sets ([]TaskView),
// CompleteResponse, completeRequest and addTasksRequest — built on
// internal/wire, whose package comment states the byte-identity and
// strict-subset rules. writeJSON adds the trailing newline json.Encoder
// writes; every decline falls back to encoding/json on the same bytes.

// appendWire appends the JSON encoding of v to b when v is one of the
// codec's types. ok is false for any other type and for a non-finite
// float; b's contents are then unchanged.
func appendWire(b []byte, v any) (_ []byte, ok bool) {
	e := wire.Enc{B: b}
	switch v := v.(type) {
	case []TaskView:
		wire.EncList(&e, v, encTaskView)
	case CompleteResponse:
		encCompleteResponse(&e, &v)
	case completeRequest:
		encCompleteRequest(&e, &v)
	case addTasksRequest:
		encAddTasksRequest(&e, &v)
	default:
		return b, false
	}
	if e.Bad {
		return b, false
	}
	return e.B, true
}

func encTaskView(e *wire.Enc, v *TaskView) {
	e.Raw(`{"id":`)
	e.Str(&v.ID)
	if v.Group != "" {
		e.Raw(`,"group":`)
		e.Str(&v.Group)
	}
	e.Raw(`,"reward":`)
	e.Float(v.Reward)
	e.Raw(`,"keywords":`)
	wire.EncList(e, v.Keywords, (*wire.Enc).Int)
	e.Raw(`,"done":`)
	e.Bool(v.Done)
	if len(v.Questions) > 0 {
		e.Raw(`,"questions":`)
		wire.EncList(e, v.Questions, encQuestionView)
	}
	if v.DeadlineMS != 0 {
		e.Raw(`,"deadline_ms":`)
		e.Int64(v.DeadlineMS)
	}
	e.Raw(`}`)
}

func encQuestionView(e *wire.Enc, v *QuestionView) {
	e.Raw(`{"id":`)
	e.Str(&v.ID)
	e.Raw(`,"prompt":`)
	e.Str(&v.Prompt)
	e.Raw(`,"options":`)
	wire.EncList(e, v.Options, (*wire.Enc).Str)
	e.Raw(`}`)
}

func encCompleteResponse(e *wire.Enc, v *CompleteResponse) {
	e.Raw(`{"reassigned":`)
	e.Bool(v.Reassigned)
	e.Raw(`,"alpha":`)
	e.Float(v.Alpha)
	e.Raw(`,"beta":`)
	e.Float(v.Beta)
	e.Raw(`,"graded":`)
	e.Int(&v.Graded)
	e.Raw(`,"correct":`)
	e.Int(&v.Correct)
	e.Raw(`,"tasks":`)
	wire.EncList(e, v.Tasks, encTaskView)
	e.Raw(`}`)
}

func encCompleteRequest(e *wire.Enc, v *completeRequest) {
	e.Raw(`{"task_id":`)
	e.Str(&v.TaskID)
	if len(v.Answers) > 0 {
		e.Raw(`,"answers":`)
		wire.EncList(e, v.Answers, encAnswer)
	}
	e.Raw(`}`)
}

func encAnswer(e *wire.Enc, v *Answer) {
	e.Raw(`{"question_id":`)
	e.Str(&v.QuestionID)
	e.Raw(`,"option":`)
	e.Int(&v.Option)
	e.Raw(`}`)
}

func encAddTasksRequest(e *wire.Enc, v *addTasksRequest) {
	e.Raw(`{"tasks":`)
	wire.EncList(e, v.Tasks, encTaskUpload)
	e.Raw(`}`)
}

func encTaskUpload(e *wire.Enc, v *taskUpload) {
	e.Raw(`{"id":`)
	e.Str(&v.ID)
	e.Raw(`,"group":`)
	e.Str(&v.Group)
	e.Raw(`,"reward":`)
	e.Float(v.Reward)
	e.Raw(`,"keywords":`)
	wire.EncList(e, v.Keywords, (*wire.Enc).Int)
	if v.DeadlineMS != 0 {
		e.Raw(`,"deadline_ms":`)
		e.Int64(v.DeadlineMS)
	}
	e.Raw(`}`)
}

// decodeWire decodes data into out when out is a pointer to one of the
// codec's types and data is in the strict subset, with nothing but
// whitespace after the value, and reports whether it did; on false out is
// untouched. out must point at a zero value, as every caller's does.
func decodeWire(data []byte, out any) bool {
	switch out := out.(type) {
	case *[]TaskView:
		return wire.Decode(data, out, func(d *wire.Dec, v *[]TaskView) bool {
			return wire.DecList(d, v, decTaskView)
		})
	case *CompleteResponse:
		return wire.Decode(data, out, decCompleteResponse)
	case *completeRequest:
		return wire.Decode(data, out, decCompleteRequest)
	case *addTasksRequest:
		return wire.Decode(data, out, decAddTasksRequest)
	}
	return false
}

func decTaskView(d *wire.Dec, v *TaskView) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.Str(&v.ID)
		case "group":
			return d.Str(&v.Group)
		case "reward":
			return d.Float(&v.Reward)
		case "keywords":
			return wire.DecList(d, &v.Keywords, (*wire.Dec).Int)
		case "done":
			return d.Bool(&v.Done)
		case "questions":
			return wire.DecList(d, &v.Questions, decQuestionView)
		case "deadline_ms":
			return d.Int64(&v.DeadlineMS)
		}
		return false
	})
}

func decQuestionView(d *wire.Dec, v *QuestionView) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.Str(&v.ID)
		case "prompt":
			return d.Str(&v.Prompt)
		case "options":
			return wire.DecList(d, &v.Options, (*wire.Dec).Str)
		}
		return false
	})
}

func decCompleteResponse(d *wire.Dec, v *CompleteResponse) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "reassigned":
			return d.Bool(&v.Reassigned)
		case "alpha":
			return d.Float(&v.Alpha)
		case "beta":
			return d.Float(&v.Beta)
		case "graded":
			return d.Int(&v.Graded)
		case "correct":
			return d.Int(&v.Correct)
		case "tasks":
			return wire.DecList(d, &v.Tasks, decTaskView)
		}
		return false
	})
}

func decCompleteRequest(d *wire.Dec, v *completeRequest) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "task_id":
			return d.Str(&v.TaskID)
		case "answers":
			return wire.DecList(d, &v.Answers, decAnswer)
		}
		return false
	})
}

func decAnswer(d *wire.Dec, v *Answer) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "question_id":
			return d.Str(&v.QuestionID)
		case "option":
			return d.Int(&v.Option)
		}
		return false
	})
}

func decAddTasksRequest(d *wire.Dec, v *addTasksRequest) bool {
	return d.Object(func(k []byte) bool {
		return string(k) == "tasks" && wire.DecList(d, &v.Tasks, decTaskUpload)
	})
}

func decTaskUpload(d *wire.Dec, v *taskUpload) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.Str(&v.ID)
		case "group":
			return d.Str(&v.Group)
		case "reward":
			return d.Float(&v.Reward)
		case "keywords":
			return wire.DecList(d, &v.Keywords, (*wire.Dec).Int)
		case "deadline_ms":
			return d.Int64(&v.DeadlineMS)
		}
		return false
	})
}
